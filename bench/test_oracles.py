"""Hand-worked cases for the benchmark's own oracles.

A wrong oracle could pass a wrong program, so each oracle is pinned here
to values worked out by hand.  Run from the repository root::

    python3 -m pytest bench/test_oracles.py -q
"""

import math
from types import SimpleNamespace

import pytest

import oracles
import workloads


def dsep(edges, x, y, given=()):
    nodes = {v for e in edges for v in e} | {x, y, *given}
    parents, children = oracles.adjacency(nodes, edges)
    return oracles.reachable_dsep(parents, children, x, y, given)


CHAIN = [("X", "Y"), ("Y", "Z")]
FORK = [("Y", "X"), ("Y", "Z")]
COLLIDER = [("X", "Y"), ("Z", "Y"), ("Y", "W")]


@pytest.mark.parametrize("edges", [CHAIN, FORK], ids=["chain", "fork"])
def test_chain_and_fork_block_when_the_middle_is_given(edges):
    assert dsep(edges, "X", "Z", ["Y"])
    assert not dsep(edges, "X", "Z")


def test_collider_opens_when_it_or_a_descendant_is_given():
    assert dsep(COLLIDER, "X", "Z")
    assert not dsep(COLLIDER, "X", "Z", ["Y"])
    assert not dsep(COLLIDER, "X", "Z", ["W"])


def test_adjacent_nodes_never_separate():
    assert not dsep(CHAIN, "X", "Y")
    assert not dsep(CHAIN, "Y", "Z", ["X"])


S_C_D = ["S", "C", "D"]


def test_smoking_chain_class():
    # S -> C -> D: C screens S off from D; the class is both chains and the fork.
    members = set(oracles.markov_class(S_C_D, [("S", "C"), ("C", "D")]))
    assert members == {
        frozenset({("S", "C"), ("C", "D")}),
        frozenset({("C", "S"), ("D", "C")}),
        frozenset({("C", "S"), ("C", "D")}),
    }
    assert oracles.implied_independencies(S_C_D, [("S", "C"), ("C", "D")]) == {("D", "S", frozenset({"C"}))}


def test_smoking_collider_class():
    collider = [("S", "C"), ("D", "C")]
    assert oracles.markov_class(S_C_D, collider) == [frozenset(collider)]
    assert oracles.v_structures(collider) == {("D", "C", "S")}
    assert oracles.implied_independencies(S_C_D, collider) == {("D", "S", frozenset())}


def test_four_cycle_with_one_collider():
    # a - b - d - c - a with b -> d <- c: the edges into d are compelled; a may
    # be a fork or sit in either chain, but never a second collider.
    nodes = ["a", "b", "c", "d"]
    into_d = {("b", "d"), ("c", "d")}
    members = set(oracles.markov_class(nodes, [("a", "b"), ("a", "c"), *into_d]))
    assert members == {
        frozenset({("a", "b"), ("a", "c"), *into_d}),
        frozenset({("b", "a"), ("a", "c"), *into_d}),
        frozenset({("a", "b"), ("c", "a"), *into_d}),
    }


def test_lexicographic_kahn_order_and_descendants():
    edges = [("b", "a"), ("c", "a"), ("a", "d"), ("c", "e")]
    nodes = ["a", "b", "c", "d", "e"]
    assert oracles.lex_kahn_order(nodes, edges) == ("b", "c", "a", "d", "e")
    _, children = oracles.adjacency(nodes, edges)
    assert oracles.bfs_descendants(children, "c") == {"a", "d", "e"}
    with pytest.raises(ValueError):
        oracles.lex_kahn_order(["a", "b"], [("a", "b"), ("b", "a")])


def test_jarque_bera_by_hand():
    # mean 0; m2 = 2/3, m3 = 0, m4 = 2/3; kurtosis 3/2; 3/6 * (1.5^2 / 4)
    assert oracles.jarque_bera([-1.0, 0.0, 1.0]) == pytest.approx(0.28125, rel=1e-15)


def test_kolmogorov_series_at_known_points():
    assert oracles.kolmogorov_sf(1.0) == pytest.approx(0.26999967167735456, rel=1e-12)
    assert oracles.kolmogorov_sf(1.3580986393225507) == pytest.approx(0.05, rel=1e-9)
    assert oracles.kolmogorov_sf(0.0) == 1.0


def test_ks_statistic_by_hand():
    # one point at 0.5 against U(0, 1): the ECDF jumps from 0 to 1 there.
    assert oracles.ks_statistic([0.5], oracles.uniform_cdf) == 0.5
    assert oracles.ks_statistic([0.25, 0.75], oracles.uniform_cdf) == 0.25
    assert oracles.normal_cdf(0.0) == 0.5


def test_fisher_z_keeps_the_tail():
    z, p = oracles.fisher_z_p(math.tanh(1.959963984540054 / math.sqrt(100 - 3)), 100, 0)
    assert z == pytest.approx(1.959963984540054, rel=1e-12)
    assert p == pytest.approx(0.05, rel=1e-9)
    _, tiny = oracles.fisher_z_p(math.tanh(13.5 / math.sqrt(997)), 1000, 0)
    assert 0.0 < tiny < 1e-40


def test_residual_correlation_by_hand():
    # x = 1..4, y = (1, 3, 2, 4): Pearson r = 4 / 5
    assert oracles.residual_correlation([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) == pytest.approx(0.8)


def test_cusum_crossing_probability_at_tabled_coefficients():
    assert oracles.crossing_probability(0.948) == pytest.approx(0.05, abs=5e-4)
    assert oracles.crossing_probability(1.143) == pytest.approx(0.01, abs=5e-4)
    assert oracles.crossing_probability(0.0) == 1.0


def test_permutation_grid():
    assert oracles.on_permutation_grid(1 / 1000, 999)
    assert oracles.on_permutation_grid(1.0, 999)
    assert not oracles.on_permutation_grid(0.0015, 999)
    assert not oracles.on_permutation_grid(0.0, 999)


def test_anm_rule():
    assert oracles.anm_direction(False, True) == "x_to_y"
    assert oracles.anm_direction(True, False) == "y_to_x"
    assert oracles.anm_direction(False, False) == "inconclusive"
    assert oracles.anm_direction(True, True) == "inconclusive"


def test_pipeline_fold():
    def card(pre, post):
        s = lambda t: dict(zip(("structural", "parametric", "temporal"), t.split(":")))  # noqa: E731
        return {"a_priori": s(pre), "a_posteriori": s(post)}

    cards = {
        "find": card("unknown:noise_model:static", "causal:noise_model:static"),
        "use": card("causal:nonparametric:static", "causal:nonparametric:static"),
    }
    final = oracles.fold_pipeline(cards, ["find", "use"], "unknown:parametric:static")
    assert oracles.triple_of(final) == "causal:parametric:static"
    assert oracles.reaches(final, "causal:noise_model:static")
    assert oracles.fold_pipeline(cards, ["use"], "unknown:parametric:static") is None
    assert oracles.fold_pipeline(cards, ["find"], "unknown:noise_model:temporal") is None


def fail(exc):
    def call():
        raise exc

    return call


def test_a_known_fault_excuses_only_its_own_failure():
    wl = workloads
    tally = wl.Tally()
    tally.run(wl.Op("named", fail(wl.KnownFault("p = 0")), fault=wl.KnownFault))
    tally.run(wl.Op("deadline", fail(wl.DeadlineExceeded("late")), fault=wl.DeadlineExceeded))
    assert (tally.attempted, tally.failed, tally.incorrect) == (2, 2, [])
    tally.run(wl.Op("other error", fail(ValueError("cap lowered")), fault=wl.DeadlineExceeded))
    tally.run(wl.Op("wrong output", lambda: 1, lambda _: wl.expect(False, "wrong"), fault=wl.KnownFault))
    tally.run(wl.Op("unexcused", fail(wl.KnownFault("p = 0"))))
    assert (tally.attempted, tally.failed, len(tally.incorrect)) == (5, 5, 3)


def cusum_report(statistic, n_residuals=298):
    p = oracles.crossing_probability(statistic / math.sqrt(n_residuals))
    return SimpleNamespace(statistic=statistic, p_value=p, alpha=0.05, details={"n_residuals": n_residuals})


def test_cusum_on_linear_data_excuses_only_a_rejection():
    workloads.check_cusum_linear(cusum_report(0.0))
    with pytest.raises(workloads.KnownFault):
        workloads.check_cusum_linear(cusum_report(79.6))
    with pytest.raises(workloads.CheckFailed):  # not rejected, but not 0 either
        workloads.check_cusum_linear(cusum_report(0.5))
    wrong_p = cusum_report(79.6)
    wrong_p.p_value = 0.5
    with pytest.raises(workloads.CheckFailed):
        workloads.check_cusum_linear(wrong_p)


def test_pcorr_in_the_tail_excuses_only_an_underflow_to_zero():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    y = [1.1, 1.9, 3.2, 3.9, 5.1, 5.8]
    rho = oracles.residual_correlation(x, y)
    check = workloads.check_pcorr_tail(x, y)
    check(SimpleNamespace(statistic=rho, p_value=oracles.fisher_z_p(rho, len(x), 0)[1]))
    with pytest.raises(workloads.KnownFault):
        check(SimpleNamespace(statistic=rho, p_value=0.0))
    with pytest.raises(workloads.CheckFailed):
        check(SimpleNamespace(statistic=rho / 2, p_value=0.0))
    with pytest.raises(workloads.CheckFailed):
        check(SimpleNamespace(statistic=rho, p_value=0.5))
