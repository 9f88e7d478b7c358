"""Assumption checks: distribution, linearity, independence, and direction tests.

Every test returns a :class:`TestReport` holding the statistic, the
p-value and the significance level; its decision is computed from them,
``Reject  iff  p_value < alpha``, so no report can contradict its evidence.
Reports serialize to plain JSON-compatible mappings and may nest advisory
sub-reports that carry extra diagnostics without affecting the decision.

Tests provided:

* one-sample Kolmogorov–Smirnov against an arbitrary CDF (exact p-values
  for n below 35, the asymptotic law from n = 35 on);
* Jarque–Bera normality (moment-based, chi-square with 2 df);
* CUSUM-of-recursive-residuals linearity check with drifting boundaries
  and an analytic boundary-crossing p-value;
* rank-correlation residual independence with a permutation p-value,
  sensitive to both signed and magnitude dependence;
* additive-noise direction finding built from local-polynomial smoothing
  plus the residual independence check in both directions;
* Gaussian conditional-independence testing via partial correlation and
  the Fisher z transform.

Every input is read by ``_as_vector`` (one-dimensional, finite, as long as
the test needs), and two paired inputs by ``_as_pair``, which also matches
their lengths; a fault raises ``ValueError`` naming the input.  Every seeded
draw, here and in :mod:`cdl_compass.scm`, takes its generator from ``_stream``.

Each noise family, :class:`NormalNoise` and :class:`UniformNoise`, states
its parameter rule, CDF, draws and text once, for a model's noise and the
``ks`` reference alike; ``ks_test`` calls the CDF on Python floats.  The
distribution functions are closed forms on top of numpy and ``math``; only
the exact small-sample Kolmogorov–Smirnov p-value needs scipy, which is
imported on that path alone.  ``TestabilityTier`` and ``testability_tier``
are re-exported from :mod:`cdl_compass.lattice`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .lattice import (
    _ORDERED_TAGS,
    ParametricTag,
    StructuralTag,
    TestabilityTier,
    _check_type,
    _json_object,
    _count,
    _Labelled,
    _real,
    testability_tier,
)


class Decision(_Labelled):
    REJECT_NULL = "reject_null"
    FAIL_TO_REJECT = "fail_to_reject"


_DETAIL_TYPES = (float, int, str, bool)


def _tag_from_label(label: str) -> StructuralTag | ParametricTag:
    if isinstance(label, str) and label in _ORDERED_TAGS:
        return _ORDERED_TAGS[label]
    raise ValueError(f"unknown knowledge level {label!r}")


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test.

    ``decision`` is a property, ``p_value < alpha``, so a report can never
    carry a contradictory verdict.  ``bears_on`` names the knowledge level
    the test gives evidence about (e.g. a conditional-independence test
    bears on the plausible structural level).  ``details`` holds
    test-specific scalars; ``sub_reports`` holds advisory nested reports
    (their decisions do not feed back into this one).

    Each field is checked here, for a report built in code or read by
    :meth:`from_mapping`: a value of the wrong type raises ``ValueError``
    naming its field (``TypeError`` for ``bears_on`` and sub-reports).  The
    three numbers are read by ``lattice._real`` and stored as floats, p must
    lie in [0, 1], and the statistic and every float detail must be finite,
    so that :meth:`to_mapping` is always strict JSON.
    """

    test: str
    statistic: float
    p_value: float
    alpha: float
    bears_on: StructuralTag | ParametricTag | None = None
    details: Mapping[str, float | int | str | bool] = field(default_factory=dict)
    sub_reports: tuple["TestReport", ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.test, str):
            raise ValueError(f"report field 'test' must be a string, got {self.test!r}")
        if not self.test:
            raise ValueError("a report needs a test name")
        for key in ("statistic", "p_value", "alpha"):
            object.__setattr__(self, key, _real(getattr(self, key), f"report field {key!r}"))
        if not math.isfinite(self.statistic):
            raise ValueError(f"report field 'statistic' must be finite, got {self.statistic!r}")
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value {self.p_value!r} outside [0, 1]")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha {self.alpha!r} outside (0, 1)")
        if not isinstance(self.bears_on, (StructuralTag, ParametricTag, type(None))):
            raise TypeError(f"bears_on must be a knowledge tag, got {self.bears_on!r}")
        if not isinstance(self.details, Mapping):
            raise ValueError(f"report field 'details' must be a mapping, got {self.details!r}")
        for key, value in self.details.items():
            if not isinstance(value, _DETAIL_TYPES):
                raise ValueError(f"detail {key!r} has non-scalar value {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"detail {key!r} must be finite, got {value!r}")
        object.__setattr__(self, "details", dict(self.details))
        object.__setattr__(self, "sub_reports", tuple(self.sub_reports))
        for sub in self.sub_reports:
            _check_type(sub, TestReport, "a sub-report")

    @property
    def decision(self) -> Decision:
        return Decision.REJECT_NULL if self.p_value < self.alpha else Decision.FAIL_TO_REJECT

    def to_mapping(self) -> dict:
        out: dict = {
            "test": self.test,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "decision": self.decision.label,
            "bears_on": None if self.bears_on is None else self.bears_on.label,
        }
        if self.details:
            out["details"] = dict(self.details)
        if self.sub_reports:
            out["sub_reports"] = [r.to_mapping() for r in self.sub_reports]
        return out

    @classmethod
    def from_mapping(cls, data: Mapping) -> "TestReport":
        """Read :meth:`to_mapping`'s form; a ``decision`` contradicting p and alpha is refused."""
        keys = ("test", "statistic", "p_value", "alpha", "decision")
        _json_object(data, "test report", keys, ("bears_on", "details", "sub_reports"))
        raw_tag, subs = data.get("bears_on"), data.get("sub_reports", [])
        if not isinstance(subs, list):
            raise ValueError(f"report field 'sub_reports' must be a list, got {subs!r}")
        decision = Decision.from_label(data["decision"])
        report = cls(
            test=data["test"],
            statistic=data["statistic"],
            p_value=data["p_value"],
            alpha=data["alpha"],
            bears_on=None if raw_tag is None else _tag_from_label(raw_tag),
            details=data.get("details", {}),
            sub_reports=[cls.from_mapping(sub) for sub in subs],
        )
        if report.decision is not decision:
            raise ValueError(
                f"decision {decision.label} contradicts p={report.p_value!r} "
                f"at alpha={report.alpha!r}"
            )
        return report


def _as_vector(values: Sequence[float], name: str, minimum: int = 1) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional sequence")
    if arr.shape[0] < minimum:
        raise ValueError(f"{name} needs at least {minimum} values, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _as_pair(a, b, minimum: int, names=("x", "y")) -> tuple[np.ndarray, np.ndarray]:
    av, bv = _as_vector(a, names[0], minimum), _as_vector(b, names[1], minimum)
    if av.shape != bv.shape:
        raise ValueError(f"{names[0]} and {names[1]} must have equal length")
    return av, bv


def _stream(seed: int, label: str | None = None) -> np.random.Generator:
    """``default_rng(seed)``, or with ``label`` a substream keyed by seed and SHA-256(label)."""
    rule = "a non-negative integer"
    if _count(seed, "seed", rule) < 0:
        raise ValueError(f"seed must be {rule}, got {seed!r}")
    if label is None:
        return np.random.default_rng(seed)
    import hashlib

    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return np.random.default_rng([int(seed), *map(int, np.frombuffer(digest, "<u8", 2))])


# ---------------------------------------------------------------------------
# Distribution functions

_SQRT1_2 = math.sqrt(0.5)


def _normal_sf(z: float) -> float:
    """Standard normal upper tail ``1 - Phi(z)``, with full resolution for large z."""
    return 0.5 * math.erfc(z * _SQRT1_2)


@dataclass(frozen=True)
class NormalNoise:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _real(self.mu, "mu"))
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma"))
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma!r}")

    def cdf(self, v: float) -> float:
        return _normal_sf(-(v - self.mu) / self.sigma)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = rng.normal(self.mu, self.sigma, size=n)
        if not np.isfinite(values).all():  # mu + sigma * z can overflow
            raise ValueError(f"a draw of {self.format()} overflows")
        return values

    def format(self) -> str:
        return f"Normal({self.mu!r}, {self.sigma!r})"


@dataclass(frozen=True)
class UniformNoise:
    low: float = 0.0
    high: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "low", _real(self.low, "low"))
        object.__setattr__(self, "high", _real(self.high, "high"))
        if not self.low < self.high:
            raise ValueError(f"need low < high, got [{self.low!r}, {self.high!r}]")
        if not math.isfinite(self.high - self.low):  # an infinite bound, or overflow
            raise ValueError(f"need finite high - low, got [{self.low!r}, {self.high!r}]")

    def cdf(self, v: float) -> float:
        return min(1.0, max(0.0, (v - self.low) / (self.high - self.low)))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def format(self) -> str:
        return f"Uniform({self.low!r}, {self.high!r})"


def _kolmogorov_sf(x: float) -> float:
    """Survival function of the limiting Kolmogorov distribution, ``P(K > x)``.

    From x = 1 up, the alternating series ``2 sum (-1)^(k-1) exp(-2 k^2 x^2)``
    converges in a few terms.  Below 1 it converges slowly, and the
    complement of the theta-function form
    ``sqrt(2 pi) / x * sum exp(-(2k-1)^2 pi^2 / (8 x^2))`` is used instead.
    """
    if x <= 0.1:
        return 1.0  # P(K <= 0.1) < 1e-52, far below rounding of 1
    total = 0.0
    k = 1
    if x >= 1.0:
        while True:
            term = math.exp(-2.0 * k * k * x * x)
            total += term if k % 2 else -term
            if term <= 1e-17 * total:
                return min(1.0, 2.0 * total)
            k += 1
    w = math.pi * math.pi / (8.0 * x * x)
    while True:
        term = math.exp(-(2 * k - 1) ** 2 * w)
        total += term
        if term <= 1e-17 * total:
            return max(0.0, 1.0 - math.sqrt(2.0 * math.pi) / x * total)
        k += 1


# ---------------------------------------------------------------------------
# Kolmogorov–Smirnov

_KS_EXACT_LIMIT = 35


def gaussian_cdf(mu: float = 0.0, sigma: float = 1.0) -> Callable[[float], float]:
    return NormalNoise(mu, sigma).cdf


def uniform_cdf(low: float = 0.0, high: float = 1.0) -> Callable[[float], float]:
    return UniformNoise(low, high).cdf


def ks_test(
    values: Sequence[float],
    cdf: Callable[[float], float],
    alpha: float = 0.05,
) -> TestReport:
    """One-sample two-sided Kolmogorov–Smirnov test against ``cdf``.

    D is the sup distance between the empirical CDF and the reference,
    computed at the sample points from both sides.  The p-value uses the
    exact finite-n distribution for n below 35 and the asymptotic
    Kolmogorov law from n = 35 on.
    """
    xs = np.sort(_as_vector(values, "values"))
    n = xs.shape[0]
    f = np.asarray([float(cdf(v)) for v in xs.tolist()])
    if not ((f >= 0.0) & (f <= 1.0)).all():
        raise ValueError("cdf returned a value outside [0, 1]")
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    d = float(max(upper.max(), lower.max(), 0.0))
    if n < _KS_EXACT_LIMIT:
        from scipy.stats import kstwo

        p = float(kstwo.sf(d, n))
    else:
        p = _kolmogorov_sf(math.sqrt(n) * d)
    return TestReport("ks", d, p, alpha, bears_on=ParametricTag.NOISE_MODEL, details={"n": int(n)})


# ---------------------------------------------------------------------------
# Jarque–Bera


def jarque_bera_test(values: Sequence[float], alpha: float = 0.05) -> TestReport:
    """Moment-based normality test.

    Central moments use the 1/n convention; the statistic is
    ``n/6 * (S^2 + (K - 3)^2 / 4)`` against a chi-square with 2 degrees of
    freedom, whose survival function is ``exp(-x/2)``.  Constant samples
    have no defined shape and are rejected as input.
    """
    xs = _as_vector(values, "values", minimum=3)
    n = xs.shape[0]
    centered = xs - xs.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise ValueError("sample variance is zero; skewness and kurtosis undefined")
    skew = float(np.mean(centered**3)) / m2**1.5
    kurt = float(np.mean(centered**4)) / m2**2
    jb = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    p = math.exp(-jb / 2.0)
    return TestReport(
        "jarque_bera",
        jb,
        p,
        alpha,
        bears_on=ParametricTag.NOISE_MODEL,
        details={"n": int(n), "skewness": skew, "kurtosis": kurt},
    )


# ---------------------------------------------------------------------------
# CUSUM linearity


def cusum_crossing_probability(coefficient: float) -> float:
    """Probability that |W| crosses the drifting boundary at this coefficient.

    The boundary grows linearly from the coefficient at the start of the
    sequence to three times it at the end; the crossing probability for a
    Brownian path is ``2 * (1 - Phi(3c) + exp(-4c^2) * Phi(c))``, clipped
    to [0, 1].
    """
    if not coefficient >= 0.0:  # NaN included
        raise ValueError(f"coefficient must be non-negative, got {coefficient!r}")
    return min(1.0, max(0.0, _crossing_raw(coefficient)))


def _crossing_raw(c: float) -> float:
    return 2.0 * (_normal_sf(3.0 * c) + math.exp(-4.0 * c * c) * _normal_sf(-c))


def cusum_critical_coefficient(alpha: float) -> float:
    """Boundary coefficient whose crossing probability equals ``alpha``.

    Solved by bisection on [1e-12, 20], where the crossing probability
    falls monotonically, down to adjacent floats; reproduces the classical
    tabled values 0.850, 0.948, and 1.143 at the 10%, 5%, and 1% levels.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha {alpha!r} outside (0, 1)")
    lo, hi = 1e-12, 20.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _crossing_raw(mid) > alpha:
            lo = mid
        else:
            hi = mid


def recursive_residuals(x: Sequence[float], y: Sequence[float]) -> np.ndarray:
    """Standardized one-step-ahead prediction errors of a straight-line fit.

    Points are taken in order of increasing x (stable over ties).  The
    initial window holds the first two points, extended while its x values
    are all tied so the slope stays identifiable; each later point
    contributes ``(y - prediction) / sqrt(1 + leverage)``.  Under a true
    linear model with iid Gaussian noise the outputs are iid normal.
    """
    xv, yv = _as_pair(x, y, 3)
    order = np.argsort(xv, kind="stable")
    # Centred, so that the running sums below stay at the scale of the spread.
    xs = xv[order] - xv.mean()
    ys = yv[order] - yv.mean()
    n = xs.shape[0]
    j = 2
    while j < n and xs[j - 1] == xs[0]:
        j += 1
    if xs[j - 1] == xs[0]:
        raise ValueError("x has no variation; a line cannot be fit")
    # Point k >= 1 against the mean of the k points before it; its Welford
    # increment k/(k+1) * dx * dy adds it to the running co-moments.
    count = np.arange(1, n)
    dx = xs[1:] - np.cumsum(xs[:-1]) / count
    dy = ys[1:] - np.cumsum(ys[:-1]) / count
    shrink = count / (count + 1.0)
    sxx = np.cumsum(shrink * dx * dx)
    sxy = np.cumsum(shrink * dx * dy)
    # Point r >= j is predicted by the fit over points 0..r-1, whose
    # co-moments are entry r - 2 of the running sums.
    s_xx, s_xy = sxx[j - 2 : -1], sxy[j - 2 : -1]
    dx, dy, r = dx[j - 1 :], dy[j - 1 :], count[j - 1 :]
    err = dy - s_xy / s_xx * dx
    return err / np.sqrt(1.0 + 1.0 / r + dx * dx / s_xx)


def _exactly_linear(x: np.ndarray, y: np.ndarray) -> bool:
    xc = x - x.mean()
    yc = y - y.mean()
    residuals = yc - float(xc @ yc) / float(xc @ xc) * xc
    return float(np.abs(residuals).max()) <= 64.0 * np.finfo(float).eps * float(np.abs(y).max())


def cusum_linearity_test(
    x: Sequence[float],
    y: Sequence[float],
    alpha: float = 0.05,
) -> TestReport:
    """Structural-stability check of a straight-line fit of y on x.

    The cumulative sum of standardized recursive residuals is compared
    against boundaries that drift outward along the sequence (the classic
    0.948 * sqrt(R) family at the 5% level, rescaled per alpha); curvature
    in the true relationship makes the recursive residuals trend and the
    cumulative sum escape.  The statistic is the largest boundary-relative
    excursion, the p-value its crossing probability.  A perfectly linear
    noise-free sample yields statistic 0, sigma 0 and no rejection; it is
    recognised by its full-sample least-squares residuals, all within
    ``64 * eps * max|y|`` of zero, since rounding in the recursion leaves
    residuals of no fixed scale.

    An advisory Kolmogorov–Smirnov sub-report checks the standardized
    residuals against the standard normal; it flags distributional
    surprises but does not enter the decision.  Needs at least five
    points with at least two distinct x values.
    """
    xv, yv = _as_pair(x, y, 5)
    w = recursive_residuals(xv, yv)
    big_r = w.shape[0]
    if big_r < 2:
        raise ValueError("too few recursive residuals to form a path")
    sigma = math.sqrt(float(np.sum(w**2)) / big_r)
    if _exactly_linear(xv, yv):
        sigma = 0.0
    details: dict[str, float | int | str | bool] = {
        "n_residuals": int(big_r),
        "sigma": sigma,
        "critical_value": cusum_critical_coefficient(alpha) * math.sqrt(big_r),
    }
    if sigma == 0.0:
        return TestReport(
            "cusum", 0.0, 1.0, alpha, bears_on=ParametricTag.PARAMETRIC, details=details
        )
    path = np.cumsum(w) / sigma
    rr = np.arange(1, big_r + 1)
    excursion = np.abs(path) / (1.0 + 2.0 * rr / big_r)
    statistic = float(excursion.max())
    p = cusum_crossing_probability(statistic / math.sqrt(big_r))
    advisory = ks_test(w / sigma, gaussian_cdf(), alpha)
    return TestReport(
        "cusum",
        statistic,
        p,
        alpha,
        bears_on=ParametricTag.PARAMETRIC,
        details=details,
        sub_reports=(advisory,),
    )


# ---------------------------------------------------------------------------
# Smoothing


def savitzky_golay_smooth(
    values: Sequence[float], window: int, degree: int
) -> np.ndarray:
    """Local least-squares polynomial smoothing over a sliding window.

    The window must be odd, longer than the degree, and no longer than the
    input.  Each interior point gets the value at its centre of the
    degree-``degree`` least-squares fit over its window (Savitzky & Golay
    1964), as one correlation with fixed weights; the first and last
    ``window // 2`` points get the fit over the first or last window
    evaluated at their own positions.
    """
    arr = _as_vector(values, "values")
    if window % 2 == 0 or window < 3:
        raise ValueError(f"window must be odd and at least 3, got {window}")
    if degree < 0 or degree >= window:
        raise ValueError(f"degree {degree} incompatible with window {window}")
    if window > arr.shape[0]:
        raise ValueError(f"window {window} exceeds series length {arr.shape[0]}")
    n, half = arr.shape[0], window // 2
    # Offsets scaled to [-1, 1], so the powers stay of order one at any degree.
    offsets = np.arange(-half, half + 1) / half
    powers = offsets ** np.arange(degree + 1)[:, None]
    # Minimum-norm weights w with powers @ w = e_0: w @ y is the fitted
    # polynomial's value at offset 0.
    unit = np.zeros(degree + 1)
    unit[0] = 1.0
    weights = np.linalg.lstsq(powers, unit, rcond=None)[0]
    out = np.empty(n)
    out[half : n - half] = np.correlate(arr, weights, mode="valid")
    head = np.linalg.lstsq(powers.T, arr[:window], rcond=None)[0]
    out[:half] = head @ powers[:, :half]
    tail = np.linalg.lstsq(powers.T, arr[n - window :], rcond=None)[0]
    out[n - half :] = tail @ powers[:, half + 1 :]
    return out


# ---------------------------------------------------------------------------
# Residual independence


def _average_ranks(values: np.ndarray, gap: float = 0.0) -> np.ndarray:
    """Ranks 1..n, each run of sorted values that step by at most ``gap``
    tied: its values share the mean of the ranks the run spans."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.concatenate(([True], np.diff(ordered) > gap))
    bounds = np.append(np.flatnonzero(starts), ordered.shape[0])
    group = np.cumsum(starts) - 1
    ranks = np.empty(ordered.shape[0])
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def _centered_ranks(values: np.ndarray, gap: float = 0.0) -> np.ndarray:
    ranks = _average_ranks(values, gap)
    return ranks - ranks.mean()


# Permutations are drawn and scored in blocks of rows holding at most this
# many indices, which keeps each block's gathers small.
_PERMUTATION_BLOCK = 1 << 14


@dataclass(frozen=True)
class _IndependenceProblem:
    """Centred ranks of an input and of residuals, their correlation scales,
    and the observed statistic."""

    xr: np.ndarray
    sr: np.ndarray
    ar: np.ndarray
    scales: tuple[float, float]
    observed: float

    @classmethod
    def of(cls, x: np.ndarray, residuals: np.ndarray) -> "_IndependenceProblem":
        # Residuals that differ by rounding in the fit are ties: a step of at
        # most 64 eps of the largest one, the scale _exactly_linear uses.
        gap = 64.0 * np.finfo(float).eps * float(np.abs(residuals).max())
        xr = _centered_ranks(x)
        sr = _centered_ranks(residuals, gap)
        ar = _centered_ranks(np.abs(residuals), gap)
        nx = float(np.linalg.norm(xr))
        # A zero norm means a constant rank vector: every dot product is 0,
        # and dividing it by 1 gives the 0 correlation it stands for.
        scales = tuple(nx * float(np.linalg.norm(v)) or 1.0 for v in (sr, ar))
        observed = max(abs(float(xr @ v / scale)) for v, scale in zip((sr, ar), scales))
        return cls(xr, sr, ar, scales, observed)

    def report(self, hits: int, n_permutations: int, alpha: float) -> TestReport:
        return TestReport(
            "residual_independence",
            self.observed,
            (1 + hits) / (1 + n_permutations),
            alpha,
            bears_on=ParametricTag.NOISE_MODEL,
            details={"n": int(self.xr.shape[0]), "n_permutations": int(n_permutations)},
        )


def _permutation_hits(
    problems: Sequence[_IndependenceProblem], n_permutations: int, seed: int
) -> list[int]:
    """Per problem, how many permutations score at least the observed statistic.

    All problems have the same length n and are scored against the same
    draws: the stream of successive ``rng.permutation(n)``, filled a block
    of rows at a time.  Centred ranks are multiples of 1/2, so every dot
    product and sum of squares is exact (below about 3e5 points) and each
    score is the rank correlation of the permuted residual ranks, scaled
    exactly as the observed statistic is.
    """
    n = problems[0].xr.shape[0]
    rng = _stream(seed)
    rows = max(1, _PERMUTATION_BLOCK // n)
    hits = [0] * len(problems)
    for done in range(0, n_permutations, rows):
        perms = np.tile(np.arange(n), (min(rows, n_permutations - done), 1))
        rng.permuted(perms, axis=1, out=perms)
        for i, pb in enumerate(problems):
            signed = np.abs(pb.sr[perms] @ pb.xr / pb.scales[0])
            magnitude = np.abs(pb.ar[perms] @ pb.xr / pb.scales[1])
            hits[i] += int(np.count_nonzero(np.maximum(signed, magnitude) >= pb.observed))
    return hits


def residual_independence_test(
    x: Sequence[float],
    residuals: Sequence[float],
    alpha: float = 0.05,
    n_permutations: int = 999,
    seed: int = 0,
) -> TestReport:
    """Permutation test of independence between an input and fit residuals.

    The statistic is the larger of two absolute Spearman correlations:
    input against residuals (signed dependence) and input against absolute
    residuals (scale dependence).  The null distribution comes from
    permuting the residual vector; the reported p is
    ``(1 + #{permuted >= observed}) / (1 + n_permutations)``.  Residuals,
    and absolute residuals, within ``64 * eps * max|residual|`` of the next
    smaller one rank as ties.  Needs at least 20 points for the permutation
    null to carry any resolution.
    """
    xv, rv = _as_pair(x, residuals, 20, ("x", "residuals"))
    if _count(n_permutations, "n_permutations") < 1:
        raise ValueError(f"n_permutations must be positive, got {n_permutations}")
    problem = _IndependenceProblem.of(xv, rv)
    (hits,) = _permutation_hits([problem], n_permutations, seed)
    return problem.report(hits, n_permutations, alpha)


# ---------------------------------------------------------------------------
# Additive-noise direction finding


class CausalDirection(_Labelled):
    X_TO_Y = "x_to_y"
    Y_TO_X = "y_to_x"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AnmResult:
    """Both directions' residual-independence reports; ``direction`` follows from them."""

    forward: TestReport
    backward: TestReport

    @property
    def direction(self) -> CausalDirection:
        fwd_ok = self.forward.decision is Decision.FAIL_TO_REJECT
        bwd_ok = self.backward.decision is Decision.FAIL_TO_REJECT
        if fwd_ok and not bwd_ok:
            return CausalDirection.X_TO_Y
        if bwd_ok and not fwd_ok:
            return CausalDirection.Y_TO_X
        return CausalDirection.INCONCLUSIVE


_ANM_PERMUTATIONS = 999


def _anm_window(n: int) -> int:
    w = max(5, n // 10)
    return w if w % 2 == 1 else w + 1


def _anm_problem(cause: np.ndarray, effect: np.ndarray) -> _IndependenceProblem:
    order = np.argsort(cause, kind="stable")
    cs, es = cause[order], effect[order]
    fitted = savitzky_golay_smooth(es, _anm_window(cs.shape[0]), 3)
    return _IndependenceProblem.of(cs, _as_vector(es - fitted, "residuals"))


def anm_direction(
    x: Sequence[float],
    y: Sequence[float],
    alpha: float = 0.05,
    seed: int = 0,
) -> AnmResult:
    """Pairwise causal direction via the additive-noise asymmetry.

    Each direction is scored by smoothing the putative effect against the
    putative cause (local cubic fit over a window of about a tenth of the
    sample) and testing the residuals for independence from the cause.  A
    direction is declared only when its own residuals pass and the reverse
    direction's residuals are rejected; anything else is inconclusive.
    Needs at least 50 points for the smoother to have anything to work
    with.
    """
    xv, yv = _as_pair(x, y, 50)
    # Both directions have the same length and seed, so they share one
    # permutation stream: the one residual_independence_test would draw.
    problems = (_anm_problem(xv, yv), _anm_problem(yv, xv))
    hits = _permutation_hits(problems, _ANM_PERMUTATIONS, seed)
    forward, backward = (pb.report(h, _ANM_PERMUTATIONS, alpha) for pb, h in zip(problems, hits))
    return AnmResult(forward, backward)


# ---------------------------------------------------------------------------
# Gaussian conditional independence


def _partial_correlation(columns: list[np.ndarray]) -> float:
    with np.errstate(invalid="ignore", divide="ignore"):
        matrix = np.corrcoef(np.vstack(columns))
    if not np.isfinite(matrix).all():
        raise ValueError("correlation undefined: a variable is constant")
    try:
        precision = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        if abs(abs(matrix[0, 1]) - 1.0) <= 4.0 * np.finfo(float).eps:
            # x and y exactly collinear: the partial correlation is +-1 even
            # though the matrix cannot be inverted.
            return math.copysign(1.0, float(matrix[0, 1]))
        raise ValueError("correlation matrix is singular; variables are collinear") from None
    rho = -precision[0, 1] / math.sqrt(precision[0, 0] * precision[1, 1])
    return float(min(1.0, max(-1.0, rho)))


def _columns(data, names: Sequence[str]) -> list[np.ndarray]:
    if len(set(names)) != len(names):
        raise ValueError(f"variables must be distinct, got {list(names)}")
    vecs = []
    for name in names:
        if not hasattr(data, "column") and name not in data:
            raise ValueError(f"unknown variable {name!r}")
        values = data.column(name) if hasattr(data, "column") else data[name]
        vecs.append(_as_vector(values, name, minimum=0))
    if len({v.shape[0] for v in vecs}) != 1:
        raise ValueError("variables have unequal lengths")
    return vecs


def partial_correlation_ci_test(
    data,
    x: str,
    y: str,
    given: Sequence[str] = (),
    alpha: float = 0.05,
) -> TestReport:
    """Fisher-z test of zero partial correlation (Gaussian CI test).

    Rejecting means the data show conditional dependence between x and y
    given the conditioning set.  Needs ``n > |given| + 3`` samples.
    """
    given = tuple(given)
    columns = _columns(data, (x, y, *given))
    n = columns[0].shape[0]
    dof = n - len(given) - 3
    if dof <= 0:
        raise ValueError(
            f"need more than {len(given) + 3} samples for {len(given)} conditioners, got {n}"
        )
    rho = _partial_correlation(columns)
    details = {"n": int(n), "given": ",".join(given)}
    if abs(rho) >= 1.0:  # z is infinite, and no report holds an infinite number
        p = 0.0
    else:
        details["z"] = z = abs(math.atanh(rho)) * math.sqrt(dof)
        p = 2.0 * _normal_sf(z)
    return TestReport(
        "partial_correlation", rho, p, alpha, bears_on=StructuralTag.PLAUSIBLE, details=details
    )
