"""D-separation oracles for cross-checking the real implementation.

Both come from other algorithm families than the program's Reachable walk.
``path_blocking_d_separated`` enumerates every simple undirected path
between the endpoints and applies the blocking rules to each interior node:
no moralization, no ancestral closure, no bitmask tricks — slow and
obviously correct.  ``moralized_d_separated`` is the moralized ancestral
graph criterion (Lauritzen et al. 1990), fast enough for large graphs.
"""

from __future__ import annotations

from itertools import combinations

from cdl_compass.graphs import Dag


def _simple_paths(adj: dict[str, set[str]], x: str, y: str):
    stack = [(x, (x,))]
    while stack:
        node, path = stack.pop()
        for nxt in sorted(adj[node]):
            if nxt in path:
                continue
            if nxt == y:
                yield path + (nxt,)
            else:
                stack.append((nxt, path + (nxt,)))


def _path_blocked(
    path: tuple[str, ...],
    edges: frozenset[tuple[str, str]],
    z: frozenset[str],
    desc: dict[str, frozenset[str]],
) -> bool:
    for i in range(1, len(path) - 1):
        prev, mid, nxt = path[i - 1], path[i], path[i + 1]
        collider = (prev, mid) in edges and (nxt, mid) in edges
        if collider:
            if mid not in z and not (desc[mid] & z):
                return True
        elif mid in z:
            return True
    return False


def path_blocking_d_separated(g: Dag, x: str, y: str, given=()) -> bool:
    """True iff every simple path between x and y is blocked by the given set."""
    z = frozenset(given)
    if x == y or x in z or y in z:
        raise ValueError("endpoints must be distinct and outside the conditioning set")
    adj: dict[str, set[str]] = {v: set() for v in g.nodes}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    desc = {v: g.descendants(v) for v in g.nodes}
    return all(
        _path_blocked(path, g.edges, z, desc) for path in _simple_paths(adj, x, y)
    )


def moralized_d_separated(g: Dag, x: str, y: str, given=()) -> bool:
    """Restrict to the ancestral closure of ``{x, y} ∪ given``, marry the
    parents of every node, drop directions, delete the conditioning nodes,
    and test whether ``x`` still reaches ``y``."""
    z = frozenset(given)
    if x == y or x in z or y in z:
        raise ValueError("endpoints must be distinct and outside the conditioning set")
    parents: dict[str, set[str]] = {v: set() for v in g.nodes}
    for a, b in g.edges:
        parents[b].add(a)
    closure = {x, y} | z
    frontier = list(closure)
    while frontier:
        for p in parents[frontier.pop()]:
            if p not in closure:
                closure.add(p)
                frontier.append(p)
    adj: dict[str, set[str]] = {v: set() for v in closure}
    for v in closure:
        for p in parents[v]:
            adj[v].add(p)
            adj[p].add(v)
            adj[p] |= parents[v] - {p}
    seen = {x}
    frontier = [x]
    while frontier:
        for w in adj[frontier.pop()] - z - seen:
            if w == y:
                return False
            seen.add(w)
            frontier.append(w)
    return True


def all_queries(g: Dag):
    """Every (x, y, conditioning subset) triple for a graph, in stable order."""
    nodes = sorted(g.nodes)
    for x, y in combinations(nodes, 2):
        rest = [v for v in nodes if v not in (x, y)]
        for size in range(len(rest) + 1):
            for z in combinations(rest, size):
                yield x, y, z
