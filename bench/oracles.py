"""Independent reference computations the benchmark checks program output against.

Nothing here imports ``cdl_compass``.  Each oracle uses a different method
from the program's own: d-separation by the Bayes-ball reachability walk
(the program moralizes the ancestral graph), topological order by a
heap-driven Kahn pass over adjacency lists, equivalence classes by
counting orientations of a skeleton (the program filters every labeled
DAG), statistics from their textbook formulas with ``math`` and numpy
least squares.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque

import numpy as np

STRUCTURAL_LEVELS = ("unknown", "plausible", "causal")
PARAMETRIC_LEVELS = ("nonparametric", "noise_model", "parametric", "fully_known")


# ---------------------------------------------------------------------------
# Graphs


def adjacency(nodes, edges):
    """Parent and child lists keyed by node."""
    parents = {v: [] for v in nodes}
    children = {v: [] for v in nodes}
    for a, b in edges:
        parents[b].append(a)
        children[a].append(b)
    return parents, children


def reachable_dsep(parents, children, x, y, given) -> bool:
    """Is ``x`` d-separated from ``y`` given ``given``?  Bayes-ball walk.

    Koller & Friedman (2009), Algorithm 3.1: a trail may enter a node from
    a child ("up") or from a parent ("down"); a non-collider passes only
    when unobserved, a collider only when it or a descendant is observed.
    """
    given = set(given)
    # Ancestors of the conditioning set (themselves included): the colliders
    # that are open.
    open_colliders = set()
    stack = list(given)
    while stack:
        v = stack.pop()
        if v not in open_colliders:
            open_colliders.add(v)
            stack.extend(parents[v])
    visited = set()
    queue = deque([(x, "up")])
    while queue:
        v, direction = queue.popleft()
        if (v, direction) in visited:
            continue
        visited.add((v, direction))
        if v == y and v not in given:
            return False
        if direction == "up" and v not in given:
            queue.extend((p, "up") for p in parents[v])
            queue.extend((c, "down") for c in children[v])
        elif direction == "down":
            if v not in given:
                queue.extend((c, "down") for c in children[v])
            if v in open_colliders:
                queue.extend((p, "up") for p in parents[v])
    return True


def lex_kahn_order(nodes, edges) -> tuple:
    """Topological order taking the lexicographically smallest ready node."""
    _, children = adjacency(nodes, edges)
    indeg = {v: 0 for v in nodes}
    for _, b in edges:
        indeg[b] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(out) != len(indeg):
        raise ValueError("graph has a cycle")
    return tuple(out)


def bfs_descendants(children, node) -> frozenset:
    seen = set()
    queue = deque(children[node])
    while queue:
        v = queue.popleft()
        if v not in seen:
            seen.add(v)
            queue.extend(children[v])
    return frozenset(seen)


def skeleton(edges) -> frozenset:
    return frozenset(frozenset(e) for e in edges)


def v_structures(edges) -> frozenset:
    """Colliders ``a -> c <- b`` whose endpoints are non-adjacent."""
    skel = skeleton(edges)
    into = {}
    for a, b in edges:
        into.setdefault(b, []).append(a)
    out = set()
    for c, pas in into.items():
        for a, b in itertools.combinations(sorted(pas), 2):
            if frozenset((a, b)) not in skel:
                out.add((a, c, b))
    return frozenset(out)


def is_acyclic(nodes, edges) -> bool:
    try:
        lex_kahn_order(nodes, edges)
    except ValueError:
        return False
    return True


def markov_class(nodes, edges) -> list:
    """All DAGs sharing the skeleton and v-structures (Verma & Pearl 1990).

    Counts by trying both orientations of every skeleton edge, so it is
    exponential in the edge count; fine up to the ten edges of 5 nodes.
    """
    pairs = sorted(tuple(sorted(p)) for p in skeleton(edges))
    target = v_structures(edges)
    members = []
    for flips in itertools.product((False, True), repeat=len(pairs)):
        cand = frozenset((b, a) if f else (a, b) for (a, b), f in zip(pairs, flips))
        if v_structures(cand) == target and is_acyclic(nodes, cand):
            members.append(cand)
    return members


def implied_independencies(nodes, edges) -> set:
    """Every (x, y, given) with x < y that the DAG d-separates."""
    parents, children = adjacency(nodes, edges)
    order = sorted(nodes)
    out = set()
    for x, y in itertools.combinations(order, 2):
        rest = [v for v in order if v not in (x, y)]
        for size in range(len(rest) + 1):
            for z in itertools.combinations(rest, size):
                if reachable_dsep(parents, children, x, y, z):
                    out.add((x, y, frozenset(z)))
    return out


# ---------------------------------------------------------------------------
# Statistics


def normal_cdf(v, mu=0.0, sigma=1.0) -> float:
    return 0.5 * (1.0 + math.erf((v - mu) / (sigma * math.sqrt(2.0))))


def uniform_cdf(v, low=0.0, high=1.0) -> float:
    return min(1.0, max(0.0, (v - low) / (high - low)))


def ks_statistic(values, cdf) -> float:
    xs = sorted(values)
    n = len(xs)
    d = 0.0
    for i, v in enumerate(xs):
        f = cdf(v)
        d = max(d, (i + 1) / n - f, f - i / n)
    return d


def kolmogorov_sf(lam: float) -> float:
    """P(K > lam) by the alternating series 2 * sum (-1)^(k-1) exp(-2 k^2 lam^2)."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, 1001):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += term if k % 2 else -term
        if term < 1e-300:
            break
    return min(1.0, max(0.0, 2.0 * total))


def jarque_bera(values) -> float:
    n = len(values)
    mean = math.fsum(values) / n
    c = [v - mean for v in values]
    m2 = math.fsum(t * t for t in c) / n
    m3 = math.fsum(t**3 for t in c) / n
    m4 = math.fsum(t**4 for t in c) / n
    skew = m3 / m2**1.5
    kurt = m4 / m2**2
    return n / 6.0 * (skew * skew + (kurt - 3.0) ** 2 / 4.0)


def residual_correlation(x, y, given=()) -> float:
    """Correlation of the least-squares residuals of x and y on [1, given]."""
    design = np.column_stack([np.ones(len(x)), *given])
    rx = x - design @ np.linalg.lstsq(design, x, rcond=None)[0]
    ry = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    return float(rx @ ry / math.sqrt(float(rx @ rx) * float(ry @ ry)))


def coefficients_within(y, regressors, expected, k_se=6.0) -> bool:
    """Do least-squares coefficients of y on [1, regressors] match ``expected``
    (intercept first) within ``k_se`` standard errors?"""
    design = np.column_stack([np.ones(len(y)), *regressors])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    dof = len(y) - design.shape[1]
    cov = float(resid @ resid) / dof * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    return bool(np.all(np.abs(beta - np.asarray(expected)) <= k_se * se))


def fisher_z_p(rho: float, n: int, n_given: int) -> tuple[float, float]:
    """Two-sided Fisher-z p-value, computed in the tail with erfc."""
    z = abs(math.atanh(rho)) * math.sqrt(n - n_given - 3)
    return z, math.erfc(z / math.sqrt(2.0))


def crossing_probability(c: float) -> float:
    """CUSUM boundary-crossing probability 2 (1 - Phi(3c) + exp(-4c^2) Phi(c))."""
    upper_3c = 0.5 * math.erfc(3.0 * c / math.sqrt(2.0))
    phi_c = 0.5 * math.erfc(-c / math.sqrt(2.0))
    return min(1.0, max(0.0, 2.0 * (upper_3c + math.exp(-4.0 * c * c) * phi_c)))


def on_permutation_grid(p: float, n_permutations: int) -> bool:
    """Is p = (1 + k) / (1 + n_permutations) for an integer 0 <= k <= n_permutations?"""
    k = p * (1 + n_permutations) - 1
    return abs(k - round(k)) < 1e-6 and 0 <= round(k) <= n_permutations


def anm_direction(forward_rejected: bool, backward_rejected: bool) -> str:
    """The documented rule: a direction only when its own residuals pass and
    the reverse direction's are rejected."""
    if not forward_rejected and backward_rejected:
        return "x_to_y"
    if not backward_rejected and forward_rejected:
        return "y_to_x"
    return "inconclusive"


# ---------------------------------------------------------------------------
# Knowledge states and pipelines


def state_key(triple: str) -> tuple[int, int, str]:
    s, p, t = triple.split(":")
    return STRUCTURAL_LEVELS.index(s), PARAMETRIC_LEVELS.index(p), t


def card_key(card: dict, side: str) -> tuple[int, int, str]:
    st = card[side]
    return state_key(f"{st['structural']}:{st['parametric']}:{st['temporal']}")


def fold_pipeline(cards: dict, ids, start: str):
    """Fold card ids over a start state at tag level.

    Returns the final ``(structural, parametric, temporal)`` key, or
    ``None`` at the first card whose requirement the running state misses.
    """
    state = state_key(start)
    for card_id in ids:
        card = cards[card_id]
        req = card_key(card, "a_priori")
        if req[0] > state[0] or req[1] > state[1] or req[2] != state[2]:
            return None
        out = card_key(card, "a_posteriori")
        state = (max(state[0], out[0]), max(state[1], out[1]), state[2])
    return state


def reaches(state, goal: str) -> bool:
    g = state_key(goal)
    return state is not None and state[0] >= g[0] and state[1] >= g[1] and state[2] == g[2]


def triple_of(key) -> str:
    return f"{STRUCTURAL_LEVELS[key[0]]}:{PARAMETRIC_LEVELS[key[1]]}:{key[2]}"
