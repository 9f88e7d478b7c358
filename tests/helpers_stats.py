"""Loop oracles for the batched statistics in ``cdl_compass.stats``.

These are the per-draw and per-point forms the package used before it
scored permutations in blocks and built recursive residuals from
cumulative sums: one ``rng.permutation`` and two rank correlations per
draw, and a rank-1 update of the inverse of X'X per point.  Slow and
obviously correct.
"""

from __future__ import annotations

import math

import numpy as np

from cdl_compass import stats
from cdl_compass.lattice import ParametricTag
from cdl_compass.stats import TestReport


def corr(a: np.ndarray, b: np.ndarray) -> float:
    """Correlation of two centred vectors; a constant one correlates with nothing."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    return 0.0 if na == 0.0 or nb == 0.0 else float(a @ b / (na * nb))


def loop_independence_report(
    x: np.ndarray,
    residuals: np.ndarray,
    alpha: float = 0.05,
    n_permutations: int = 999,
    seed: int = 0,
) -> TestReport:
    """``residual_independence_test`` scored one permutation at a time."""
    xv = np.asarray(x, dtype=float)
    rv = np.asarray(residuals, dtype=float)
    # Residuals a step of at most 64 eps of the largest one apart are ties.
    gap = 64.0 * np.finfo(float).eps * float(np.abs(rv).max())
    xr = stats._centered_ranks(xv)
    sr = stats._centered_ranks(rv, gap)
    ar = stats._centered_ranks(np.abs(rv), gap)
    observed = max(abs(corr(xr, sr)), abs(corr(xr, ar)))
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        perm = rng.permutation(xv.shape[0])
        if max(abs(corr(xr, sr[perm])), abs(corr(xr, ar[perm]))) >= observed:
            hits += 1
    return TestReport(
        "residual_independence",
        observed,
        (1 + hits) / (1 + n_permutations),
        alpha,
        bears_on=ParametricTag.NOISE_MODEL,
        details={"n": int(xv.shape[0]), "n_permutations": int(n_permutations)},
    )


def loop_anm_reports(
    x: np.ndarray, y: np.ndarray, alpha: float = 0.05, seed: int = 0
) -> tuple[TestReport, TestReport]:
    """Forward and backward ``anm_direction`` sub-reports, each direction
    drawing its own permutations."""

    def one(cause: np.ndarray, effect: np.ndarray) -> TestReport:
        order = np.argsort(cause, kind="stable")
        cs, es = cause[order], effect[order]
        fitted = stats.savitzky_golay_smooth(es, stats._anm_window(cs.shape[0]), 3)
        return loop_independence_report(cs, es - fitted, alpha=alpha, seed=seed)

    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return one(xv, yv), one(yv, xv)


def rank_one_recursive_residuals(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``recursive_residuals`` by a rank-1 update of the inverse of X'X."""
    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    order = np.argsort(xv, kind="stable")
    xs, ys = xv[order], yv[order]
    n = xs.shape[0]
    j = 2
    while j < n and xs[j - 1] == xs[0]:
        j += 1
    if xs[j - 1] == xs[0]:
        raise ValueError("x has no variation; a line cannot be fit")
    design = np.column_stack([np.ones(j), xs[:j]])
    xtx_inv = np.linalg.inv(design.T @ design)
    beta = xtx_inv @ design.T @ ys[:j]
    out = np.empty(n - j)
    for idx, r in enumerate(range(j, n)):
        row = np.array([1.0, xs[r]])
        spread = 1.0 + float(row @ xtx_inv @ row)
        err = float(ys[r] - row @ beta)
        out[idx] = err / math.sqrt(spread)
        gain = (xtx_inv @ row) / spread
        beta = beta + gain * err
        xtx_inv = xtx_inv - np.outer(gain, row @ xtx_inv)
    return out
