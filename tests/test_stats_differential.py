"""Differential tests: the batched statistics against their loop oracles.

``residual_independence_test`` and ``anm_direction`` score permutations in
blocks, and ``anm_direction`` shares one permutation stream between its two
directions; their reports must equal the per-draw loop's exactly.
``recursive_residuals`` builds its fits from cumulative sums instead of a
rank-1 update per point, so it is compared to a relative tolerance.  The
oracles live in ``tests/helpers_stats.py``.

Every seeded draw takes its generator from ``stats._stream``; the two
constructions it replaced, ``default_rng(seed)`` for the permutation stream
and a ``SeedSequence`` of the seed and two SHA-256 words of the name for each
noise symbol, are written out here as its oracle.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdl_compass import scm, stats
from cdl_compass.stats import (
    anm_direction,
    cusum_linearity_test,
    recursive_residuals,
    residual_independence_test,
)
from helpers_stats import (
    loop_anm_reports,
    loop_independence_report,
    rank_one_recursive_residuals,
)

_PERMUTATION_COUNTS = st.one_of(
    st.sampled_from([1, 999]),
    # counts that leave a partial last block at most lengths
    st.integers(2, 1500),
)


@st.composite
def _independence_cases(draw, min_n):
    n = draw(st.integers(min_n, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    if draw(st.booleans()):
        x = np.round(x, 1)  # ties among the input ranks
    kind = draw(st.sampled_from(["independent", "scale", "signed", "rounded", "constant"]))
    if kind == "independent":
        r = rng.normal(size=n)
    elif kind == "scale":
        r = rng.normal(size=n) * np.abs(x)
    elif kind == "signed":
        r = 0.3 * x + rng.normal(size=n)
    elif kind == "rounded":
        r = np.round(rng.normal(size=n), 1)
    else:
        r = np.full(n, 2.5)
    return x, r


@settings(max_examples=60, deadline=None)
@given(_independence_cases(20), _PERMUTATION_COUNTS, st.integers(0, 2**16))
def test_residual_independence_matches_loop(case, n_permutations, seed):
    x, r = case
    ours = residual_independence_test(x, r, n_permutations=n_permutations, seed=seed)
    reference = loop_independence_report(x, r, n_permutations=n_permutations, seed=seed)
    assert ours.to_mapping() == reference.to_mapping()


@pytest.mark.parametrize("n", [20, 30, 547, 5000])
def test_block_boundaries_match_loop(n):
    # 999 draws end mid-block at every one of these lengths, and at n = 5000
    # a block holds only three rows.
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    r = rng.normal(size=n) * (1.0 + 0.2 * x)
    rows = stats._PERMUTATION_BLOCK // n
    for count in (rows - 1, rows, rows + 1, 999):
        if count < 1:
            continue
        ours = residual_independence_test(x, r, n_permutations=count, seed=7)
        reference = loop_independence_report(x, r, n_permutations=count, seed=7)
        assert ours.to_mapping() == reference.to_mapping()


def test_block_rows_follow_successive_permutations():
    # Each block is drawn in one call, as _permutation_hits draws it; its rows
    # and the generator's state after it are those of one draw per row.
    for n in (30, 300, 1000, 5000):
        rows = stats._PERMUTATION_BLOCK // n
        rng, successive = np.random.default_rng(3), np.random.default_rng(3)
        for count in (rows, 2, rows):
            block = np.tile(np.arange(n), (count, 1))
            rng.permuted(block, axis=1, out=block)
            assert all(np.array_equal(row, successive.permutation(n)) for row in block)
            assert rng.bit_generator.state == successive.bit_generator.state


@st.composite
def _anm_cases(draw):
    x, noise = draw(_independence_cases(50))
    mechanism = draw(st.sampled_from(["cubic", "linear", "tanh", "constant"]))
    if mechanism == "cubic":
        y = x**3 + 0.1 * noise
    elif mechanism == "linear":
        y = 1.5 * x + noise
    elif mechanism == "tanh":
        y = np.tanh(2.0 * x) + 0.05 * noise
    else:
        y = np.full_like(x, 1.0)
    return x, y


@settings(max_examples=30, deadline=None)
@given(_anm_cases(), st.integers(0, 2**16))
def test_anm_direction_matches_loop(case, seed):
    x, y = case
    ours = anm_direction(x, y, seed=seed)
    forward, backward = loop_anm_reports(x, y, seed=seed)
    assert ours.forward.to_mapping() == forward.to_mapping()
    assert ours.backward.to_mapping() == backward.to_mapping()


def _close(value, reference, rel):
    return np.max(np.abs(value - reference)) <= rel * np.max(np.abs(reference))


@st.composite
def _line_cases(draw, min_n):
    n = draw(st.integers(min_n, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Well conditioned: a jittered grid keeps neighbouring x values apart,
    # and the smallest ones (a tie group after rounding) sit well below the
    # rest.  The rank-1 oracle's error grows with the conditioning of its
    # first window: where the first two x values nearly tie it drifts by up
    # to 2e-5 relative against a 60-digit reference, while the cumulative
    # sums stay within 1e-13.
    u = rng.permutation(np.linspace(-1.0, 1.0, n)) + rng.uniform(0.0, 0.5 / n, n)
    if draw(st.booleans()):
        u = np.round(u, 1)  # ties, often at the start of the ordered sample
    u[u == u.min()] = -1.5
    x = u * 10.0 ** draw(st.integers(-3, 3))
    xu = (u + 1.0) / 2.0
    curve = draw(st.sampled_from([0.0, 0.0, 0.3, 2.0]))
    y = 1.0 + 2.0 * xu + curve * xu**2 + 0.1 * rng.normal(size=n)
    return x, y


@settings(max_examples=200, deadline=None)
@given(_line_cases(3))
def test_recursive_residuals_match_rank_one_updates(case):
    x, y = case
    assert _close(recursive_residuals(x, y), rank_one_recursive_residuals(x, y), 1e-9)


@pytest.mark.parametrize(
    "x",
    [
        [1.0, 1.0, 1.0, 2.0, 3.0, 4.0],
        [5.0, 5.0, 5.0, 5.0, 5.0, 6.0, 6.0, 7.0, 8.0],
        [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0],
    ],
)
def test_recursive_residuals_tied_start(x):
    y = np.random.default_rng(len(x)).normal(size=len(x)) + np.asarray(x)
    ours = recursive_residuals(x, y)
    reference = rank_one_recursive_residuals(x, y)
    assert ours.shape == reference.shape
    assert _close(ours, reference, 1e-9)


@settings(max_examples=100, deadline=None)
@given(_line_cases(30))
def test_cusum_matches_rank_one_route(case):
    x, y = case
    ours = cusum_linearity_test(x, y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "recursive_residuals", rank_one_recursive_residuals)
        reference = cusum_linearity_test(x, y)
    assert ours.decision is reference.decision
    assert abs(ours.statistic - reference.statistic) <= 1e-9 * reference.statistic
    assert abs(ours.p_value - reference.p_value) <= 1e-9 * reference.p_value


# ---------------------------------------------------------------------------
# One stream constructor


def _old_stream(seed, label=None):
    """The two constructions ``stats._stream`` replaced, as they were written."""
    if label is None:
        return np.random.default_rng(seed)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 16, 8)]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *words]))


_SEEDS = [0, 1, 7, 2**63, 2**70, np.int64(7)]
_SEEDED_MODEL = scm.parse_scm(
    "graph:\nX -> Y\nX -> Y0\nX -> Y1\nW\n"
    "equations:\nY = 2 * X + U\nY0 := X + U_S\nY1 := X * X + 0.5 * U_S\n"
    "noise:\nU_X ~ Normal(0.0, 1.0)\nU_Y ~ Uniform(-1.0, 1.0)\n"
    "U_W ~ Uniform(0.0, 2.0)\nU_S ~ Normal(1.0, 0.5)\n"
)


def _seeded_outputs(seed):
    """Every seeded entry point's output at ``seed``, as comparable values."""
    data = scm.sample(_SEEDED_MODEL, 50, seed=seed)
    columns = [(name, data.column(name).tobytes()) for name in data.names]
    cate = scm.oracle_cate(_SEEDED_MODEL, {"X": 0.5}, n_mc=40, seed=seed)
    rng = np.random.default_rng(3)
    x = rng.normal(size=60)
    y = x**3 + rng.normal(size=60)
    resid = stats.residual_independence_test(x, y, n_permutations=99, seed=seed)
    anm = stats.anm_direction(x, y, seed=seed)
    return columns, cate, resid, anm


@pytest.mark.parametrize("seed", _SEEDS, ids=repr)
def test_stream_matches_the_constructions_it_replaced(seed, monkeypatch):
    for label in (None, "noise:X", "noise:U_S"):
        new = stats._stream(seed, label).bit_generator.state
        assert new == _old_stream(seed, label).bit_generator.state
    got = _seeded_outputs(seed)
    monkeypatch.setattr(stats, "_stream", _old_stream)
    monkeypatch.setattr(scm, "_stream", _old_stream)
    assert got == _seeded_outputs(seed)
