"""Directed and partially directed graphs, d-separation, and equivalence classes.

Graphs are immutable values over variables named by identifiers (see
``_NAME``).  The central operations are:

* :func:`d_separated` — decide whether a DAG implies a conditional
  independence, via the Reachable (Bayes-ball) walk over cached bitmasks;
* :func:`implied_independencies` — the full set of conditional
  independencies a DAG entails;
* :func:`enumerate_mec` — every labeled DAG on a small variable set that
  agrees with a set of independence and dependence constraints; with
  constraints read off a graph's full independence structure this recovers
  its Markov equivalence class.  The search first pins each variable pair
  the constraints decide: a pair with a holding independence has no edge,
  and a pair dependent given every subset of the other variables has one.
  Pairs left undecided still branch three ways (no edge, forward,
  backward), and a search that could reach more DAGs than an
  unconstrained 5-variable one is refused;
* :func:`unroll` — instantiate a temporal template into a concrete DAG over
  role-indexed per-step variables.

A text exchange format is provided: one edge per line, ``parent -> child``
for directed edges, ``a -- b`` for undirected ones, bare names for isolated
nodes, ``#`` starts a comment.

All set-valued outputs are returned in lexicographic order of variable
names and then edge lists, so results are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class CycleError(ValueError):
    """A directed cycle where a DAG was required; carries the offending cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("directed cycle: " + " -> ".join(cycle + cycle[:1]))


class GraphFormatError(ValueError):
    """Malformed graph or constraint text.

    ``line`` is the 1-based number of the line at fault, or ``None`` when the
    fault lies in the text as a whole: a directed cycle, undirected edges
    where a DAG is required, or contradictory constraints.  ``reason`` is
    the message without its line prefix.
    """

    def __init__(self, line: int | None, message: str):
        self.line = line
        self.reason = message
        super().__init__(message if line is None else f"line {line}: {message}")


# The one variable-name rule.  Every format can write an identifier, so each
# reader refuses any other name, and every Dag prints as text that reads back.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_name(name: object, lineno: int | None = None) -> str:
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        message = f"variable name {name!r} is not an identifier"
        raise ValueError(message) if lineno is None else GraphFormatError(lineno, message)
    return name


def _check_names(names) -> None:
    """Check a collection of names in one pass; sort only to name the first bad one."""
    for v in names:
        if not isinstance(v, str) or not _NAME.fullmatch(v):
            for w in sorted(names, key=str):  # str: a bad name is named, not a TypeError
                _check_name(w)


@dataclass(frozen=True)
class Dag:
    """A directed acyclic graph over named variables.

    Construction validates everything: edge endpoints must be declared
    nodes, self loops are cycles, and any directed cycle raises
    :class:`CycleError` naming the cycle.
    """

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @classmethod
    def of(cls, edges: Iterable[tuple[str, str]] = (), nodes: Iterable[str] = ()) -> "Dag":
        """Build a DAG, adding edge endpoints to the node set automatically."""
        edge_set = frozenset((a, b) for a, b in edges)
        return cls(frozenset(nodes).union(*edge_set), edge_set)

    def __post_init__(self) -> None:
        _check_names(self.nodes)
        order = tuple(sorted(self.nodes))
        index = {v: i for i, v in enumerate(order)}
        parent_masks = [0] * len(order)
        child_masks = [0] * len(order)
        for a, b in self.edges:
            if a not in index or b not in index or a == b:
                raise _edge_fault(self.edges, index)
            parent_masks[index[b]] |= 1 << index[a]
            child_masks[index[a]] |= 1 << index[b]
        topo = _lex_kahn(parent_masks, child_masks)
        if len(topo) != len(order):
            raise CycleError([order[i] for i in _leftover_cycle(parent_masks, topo)])
        # The dataclass is frozen, so the index goes straight into __dict__,
        # where cached_property would put it.
        vars(self).update(
            _order=order,
            _index=index,
            _parent_masks=tuple(parent_masks),
            _child_masks=tuple(child_masks),
            _topological_order=tuple(order[i] for i in topo),
        )

    # -- derived index structures (cached_property writes straight to
    # -- __dict__, which is fine for derived data on a frozen dataclass) ----

    @cached_property
    def _ancestor_masks(self) -> tuple[int, ...]:
        """Each node and its ancestors, as bitmasks, via topological order."""
        masks = [0] * len(self._order)
        for v in self._topological_order:
            i = self._index[v]
            acc = 1 << i
            for j in _bits(self._parent_masks[i]):
                acc |= masks[j]
            masks[i] = acc
        return tuple(masks)

    def parents(self, node: str) -> frozenset[str]:
        self._require(node)
        return self._names_of(self._parent_masks[self._index[node]])

    def children(self, node: str) -> frozenset[str]:
        self._require(node)
        return self._names_of(self._child_masks[self._index[node]])

    def descendants(self, node: str) -> frozenset[str]:
        """Strict descendants: the nodes other than ``node`` whose ancestor mask holds it."""
        self._require(node)
        bit, masks = 1 << self._index[node], self._ancestor_masks
        return frozenset(v for v, mask in zip(self._order, masks) if mask & bit and v != node)

    def topological_order(self) -> tuple[str, ...]:
        """A deterministic topological order (lexicographic among ready nodes)."""
        return self._topological_order

    def _names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self._order[i] for i in _bits(mask))

    def _require(self, *names: str) -> None:
        for v in names:  # the first unknown one, in the order given
            if v not in self.nodes:
                raise ValueError(f"unknown variable {v!r}")


def _edge_key(edge) -> tuple[str, ...]:
    # Edges built in code may hold non-strings; comparing them as text keeps
    # the order total, so such an edge is still named, not a TypeError.
    return tuple(map(str, edge))


def _edge_fault(edges, index: dict[str, int]) -> ValueError:
    """The fault of the smallest edge with an undeclared endpoint or a self
    loop, so the message does not hang on the set's hash order."""
    a, b = min(
        (e for e in edges if e[0] == e[1] or e[0] not in index or e[1] not in index),
        key=_edge_key,
    )
    if a not in index or b not in index:
        return ValueError(f"edge ({a!r}, {b!r}) uses an undeclared node")
    return CycleError([a])


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lex_kahn(parent_masks: list[int], child_masks: list[int]) -> list[int]:
    """Kahn's algorithm over node indices, taking the lowest ready index first.

    Indices follow lexicographic order of the names, so this is the
    lexicographically first topological order.  Shorter than the node
    count exactly when the graph has a directed cycle.
    """
    import heapq

    # ``ready`` starts sorted, which is already a heap.
    indeg = [mask.bit_count() for mask in parent_masks]
    ready = [i for i, d in enumerate(indeg) if d == 0]
    out: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        out.append(i)
        for c in _bits(child_masks[i]):
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    return out


def _leftover_cycle(parent_masks: list[int], topo: list[int]) -> list[int]:
    """A directed cycle among the nodes Kahn's pass left over, as indices.

    Every leftover node keeps a leftover parent, so stepping from the lowest
    leftover index to its lowest leftover parent must revisit a node; the
    steps since the first visit, reversed, run along the edges.
    """
    left = (1 << len(parent_masks)) - 1 - sum(1 << i for i in topo)
    step: dict[int, int] = {}  # each visited node's place on the walk
    i = (left & -left).bit_length() - 1
    while i not in step:
        step[i] = len(step)
        parents = parent_masks[i] & left
        i = (parents & -parents).bit_length() - 1
    return list(step)[step[i]:][::-1]


def _d_connected(parent_masks, child_masks, ancestors, xi: int, zmask: int, targets: int) -> int:
    """The nodes of ``targets`` d-connected to node ``xi`` given ``zmask``, in
    the graph of those parent, child and ancestor (node included) bitmasks.

    Koller and Friedman's Reachable walk (Probabilistic Graphical Models,
    2009, Alg. 3.1; Shachter's Bayes-ball) over those bitmasks.  A
    trail arrives at a node either up, from a child, or down, from a
    parent.  A node outside Z passes a trail on to its children either way,
    and to its parents when it arrived up; a node that is in Z or has a
    descendant there (a collider that is opened) turns a down trail back up
    to its parents.  Every node on an active trail is an ancestor of an
    endpoint or of Z, so the walk stays inside An({x} ∪ Z ∪ targets).  It
    stops once every target is reached.
    """
    opened = 0  # An(Z): colliders here pass a trail
    for i in _bits(zmask):
        opened |= ancestors[i]
    inside = opened | ancestors[xi]
    for i in _bits(targets):
        inside |= ancestors[i]
    up, down = 1 << xi, 0  # arrivals of the current round
    reach = sent_down = sent_up = 0
    while up or down:
        reach |= (up | down) & ~zmask
        if reach & targets == targets:
            break
        to_children = reach & ~sent_down
        to_parents = ((up & ~zmask) | (down & opened)) & ~sent_up
        sent_down |= to_children
        sent_up |= to_parents
        down = up = 0
        while to_children:  # _bits inlined: this loop is the hot one
            low = to_children & -to_children
            down |= child_masks[low.bit_length() - 1]
            to_children ^= low
        while to_parents:
            low = to_parents & -to_parents
            up |= parent_masks[low.bit_length() - 1]
            to_parents ^= low
        down &= inside
        up &= inside
    return reach & targets


def _mask(index: dict[str, int], names: Iterable[str]) -> int:
    mask = 0
    for v in names:
        mask |= 1 << index[v]
    return mask


def d_separated(g: Dag, x: str, y: str, given: Iterable[str] = ()) -> bool:
    """Does ``g`` imply ``x`` independent of ``y`` given the conditioning set?

    Asks Koller and Friedman's Reachable walk (Bayes-ball) whether any
    active trail joins ``x`` to ``y``: a chain or fork is blocked when its
    middle node is conditioned on; a collider blocks unless it or one of
    its descendants is conditioned on.  The walk stays inside the ancestral
    closure of ``{x, y} ∪ given`` and stops as soon as it reaches ``y``.

    Symmetric in ``x`` and ``y``.  Requires ``x != y`` and neither endpoint
    inside the conditioning set.
    """
    z = frozenset(given)
    g._require(x, y, *(given if isinstance(given, (list, tuple)) else sorted(z)))
    if x == y:
        raise ValueError("d-separation needs two distinct variables")
    if x in z or y in z:
        raise ValueError("query variables may not appear in the conditioning set")
    masks = g._parent_masks, g._child_masks, g._ancestor_masks
    return not _d_connected(*masks, g._index[x], _mask(g._index, z), 1 << g._index[y])


@dataclass(frozen=True)
class IndependenceStatement:
    """One (possibly negated) conditional independence claim.

    Stored in canonical form with ``x < y`` lexicographically, since the
    relation is symmetric in its endpoints.
    """

    x: str
    y: str
    given: frozenset[str] = frozenset()
    holds: bool = True

    def __post_init__(self) -> None:
        _check_name(self.x)
        _check_name(self.y)
        _check_names(self.given)
        if self.x == self.y:
            raise ValueError("an independence statement needs two distinct variables")
        if self.x in self.given or self.y in self.given:
            raise ValueError("statement variables may not appear in the conditioning set")
        if self.y < self.x:
            first, second = self.y, self.x
            object.__setattr__(self, "x", first)
            object.__setattr__(self, "y", second)
        object.__setattr__(self, "given", frozenset(self.given))

    def sort_key(self) -> tuple:
        return (self.x, self.y, len(self.given), tuple(sorted(self.given)), not self.holds)


@dataclass(frozen=True)
class IndependenceSet:
    """A set of independence/dependence constraints, free of contradictions."""

    statements: frozenset[IndependenceStatement]

    @classmethod
    def of(cls, statements: Iterable[IndependenceStatement]) -> "IndependenceSet":
        return cls(frozenset(statements))

    def __post_init__(self) -> None:
        object.__setattr__(self, "statements", frozenset(self.statements))
        seen: dict[tuple, bool] = {}
        for s in self.statements:
            if not isinstance(s, IndependenceStatement):
                raise TypeError(f"a statement must be an IndependenceStatement, got {s!r}")
            key = (s.x, s.y, s.given)
            if key in seen and seen[key] != s.holds:
                raise ValueError(
                    f"contradictory constraints on {s.x} and {s.y} given {sorted(s.given)}"
                )
            seen[key] = s.holds

    def sorted_statements(self) -> tuple[IndependenceStatement, ...]:
        return self._sorted

    @cached_property
    def _sorted(self) -> tuple[IndependenceStatement, ...]:
        # Sorted once, for sorted_statements and for the groups _by_source caches.
        return tuple(sorted(self.statements, key=IndependenceStatement.sort_key))

    def variables(self) -> frozenset[str]:
        return self._variables

    @cached_property
    def _variables(self) -> frozenset[str]:
        out: set[str] = set()
        for s in self.statements:
            out.add(s.x)
            out.add(s.y)
            out |= s.given
        return frozenset(out)

    @cached_property
    def _by_source(self) -> tuple[tuple[str, frozenset[str], tuple[str, ...], tuple[str, ...]], ...]:
        """Statements grouped by ``(x, given)``: the ``y`` of each holding
        independence, then of each dependence.  consistent_with and the
        class search answer a group with one walk per graph they check."""
        groups: dict[tuple[str, frozenset[str]], tuple[list[str], list[str]]] = {}
        for s in self._sorted:
            separated, connected = groups.setdefault((s.x, s.given), ([], []))
            (separated if s.holds else connected).append(s.y)
        return tuple((x, z, tuple(sep), tuple(con)) for (x, z), (sep, con) in groups.items())


_IMPLIED_MAX_NODES = 8


def implied_independencies(g: Dag) -> IndependenceSet:
    """Every conditional independence the DAG entails.

    Checks each unordered variable pair against every conditioning subset of
    the remaining variables, with one walk per first endpoint and subset
    answering every later endpoint at once.  Refuses graphs of more than
    8 nodes (the subset lattice is exponential).
    """
    if len(g.nodes) > _IMPLIED_MAX_NODES:
        raise ValueError(
            f"graph has {len(g.nodes)} nodes; implied_independencies is capped at "
            f"{_IMPLIED_MAX_NODES}"
        )
    order, masks = g._order, (g._parent_masks, g._child_masks, g._ancestor_masks)
    found: list[IndependenceStatement] = []
    for xi, x in enumerate(order[:-1]):
        later = (1 << len(order)) - (2 << xi)  # the indices after xi
        rest = [v for v in order if v != x]
        for size in range(len(rest) + 1):
            for z in itertools.combinations(rest, size):
                zmask = _mask(g._index, z)
                targets = later & ~zmask
                separated = targets & ~_d_connected(*masks, xi, zmask, targets)
                given = frozenset(z)
                found.extend(IndependenceStatement(x, order[yi], given) for yi in _bits(separated))
    return IndependenceSet.of(found)


def consistent_with(g: Dag, constraints: IndependenceSet) -> bool:
    """Does the DAG agree with every constraint, negations included?"""
    if not constraints.variables() <= g.nodes:
        for s in constraints.sorted_statements():
            g._require(s.x, s.y, *sorted(s.given))
    index, masks = g._index, (g._parent_masks, g._child_masks, g._ancestor_masks)
    for x, given, separated, connected in constraints._by_source:
        sep, con = _mask(index, separated), _mask(index, connected)
        if _d_connected(*masks, index[x], _mask(index, given), sep | con) != con:
            return False
    return True


def enumerate_dags(variables: Iterable[str]) -> Iterator[Dag]:
    """All labeled DAGs on the given variables, in a deterministic order.

    Each unordered pair independently takes one of three states (no edge,
    forward, backward); a branch whose edge would close a cycle is pruned on
    ancestor masks kept as edges are added, so no cyclic graph is built.
    """
    names = sorted({_check_name(v) for v in variables})
    pairs = itertools.combinations(range(len(names)), 2)
    yield from _search_dags(names, [(None, (a, b), (b, a)) for a, b in pairs])


def _search_dags(
    names: list[str],
    choices: list[tuple[tuple[int, int] | None, ...]],
    groups: Iterable[tuple[int, int, int, int]] = (),
) -> Iterator[Dag]:
    """DAGs on ``names`` taking, for the k-th pair of ``combinations(range(n), 2)``,
    one of the states in ``choices[k]``: ``None`` for no edge or an index
    pair ``(src, dst)`` for that edge.  States are tried in the order given.

    A candidate becomes a :class:`Dag` only if it agrees with every group
    ``(xi, zmask, targets, connected)``: given ``zmask``, node ``xi`` is
    d-connected to the nodes of ``connected`` and to no other of ``targets``.
    """
    n = len(names)
    node_set = frozenset(names)
    edges: list[tuple[int, int]] = []
    parents, children = [0] * n, [0] * n

    def rec(k: int, ancestors: list[int]):
        if k == len(choices):
            masks = parents, children, ancestors
            if all(_d_connected(*masks, xi, z, t) == c for xi, z, t, c in groups):
                yield Dag(node_set, frozenset((names[a], names[b]) for a, b in edges))
            return
        for edge in choices[k]:
            if edge is None:
                yield from rec(k + 1, ancestors)
                continue
            src, dst = edge
            if ancestors[src] >> dst & 1:
                continue  # dst is an ancestor of src: adding src->dst closes a cycle
            # Every node with dst among its ancestors gains src's ancestors.
            gained, bit = ancestors[src], 1 << dst
            edges.append(edge)
            parents[dst] |= 1 << src
            children[src] |= bit
            yield from rec(k + 1, [m | gained if m & bit else m for m in ancestors])
            edges.pop()
            parents[dst] ^= 1 << src
            children[src] ^= bit

    yield from rec(0, [1 << i for i in range(n)])


# Branches of an unconstrained 5-variable search, whose 29,281 DAGs take
# 0.6-0.9 s; six variables with too few constraints would visit millions.
_MAX_BRANCHES = 3**10


# Listing the complete 7-variable class (all 5,040 candidates are members)
# through the CLI takes about 0.5 s and 40 MB on a 2-core machine; the
# 8-variable one (40,320) takes about 7 times the time and 6 times the memory.
_MEC_MAX_NODES = 7


def _enumeration_names(variables: Iterable[str]) -> list[str]:
    """The sorted, checked names to enumerate over, refused beyond ``_MEC_MAX_NODES``."""
    names = sorted({_check_name(v) for v in variables})
    if len(names) > _MEC_MAX_NODES:
        raise ValueError(f"{len(names)} variables exceed the enumeration cap of {_MEC_MAX_NODES}")
    return names


def enumerate_mec(constraints: IndependenceSet, variables: Iterable[str]) -> list[Dag]:
    """All DAGs on ``variables`` agreeing exactly with the constraints.

    Both independence and dependence statements must hold: the collider
    structure, for instance, is pinned down only by asserting that its
    endpoints become dependent when the middle node is conditioned on.
    When the constraints record a graph's complete independence structure
    (every pair, every conditioning subset, with negations for the rest),
    the result is that graph's Markov equivalence class.

    The search is the one :func:`enumerate_dags` runs, with some pairs
    pinned before it branches:

    * a pair with any holding independence has no edge, since adjacent
      variables are d-connected given every set;
    * a pair whose dependence is asserted given every subset of the other
      variables has an edge, since a non-adjacent pair is d-separated by
      the parents of whichever endpoint comes later in a topological order.

    Every other pair still branches three ways (no edge, forward,
    backward).  A search is refused when it could reach more DAGs than an
    unconstrained 5-variable one (3^10 branches).  The count it could reach
    is the smaller of the product of each pair's choices and ``n! * 2^u``
    for ``u`` undecided pairs: every DAG follows some order of the
    variables, and within one order only the undecided pairs are free, so
    the cycle pruning keeps a full signature to its acyclic orientations.
    Each candidate is checked on the search's own bitmasks, and only one
    that passes becomes a :class:`Dag`.  While pairs are undecided, the
    check covers every constraint but those on pairs pinned to an edge,
    which hold in every candidate.  Otherwise it covers one holding
    statement per absent pair; these fix every unshielded collider, so the
    DAGs that pass form one Markov class, which agrees with every constraint
    or with none (Verma & Pearl 1990), as its first member shows.  Capped
    at 7 variables; results are sorted lexicographically by edge list.
    """
    names = _enumeration_names(variables)
    unknown = constraints.variables() - set(names)
    if unknown:
        raise ValueError(f"constraints mention unlisted variables: {sorted(unknown)}")
    separated = {(s.x, s.y): s for s in constraints.sorted_statements() if s.holds}
    dependent = Counter((s.x, s.y) for s in constraints.statements if not s.holds)
    # A pair's negations have distinct givens, each a subset of the other
    # variables, so a count of 2^(n-2) means every subset is covered.
    choices: list[tuple[tuple[int, int] | None, ...]] = []
    adjacent: set[tuple[str, str]] = set()
    for a, b in itertools.combinations(range(len(names)), 2):
        pair = (names[a], names[b])
        if pair in separated:
            choices.append((None,))
        elif dependent[pair] == 1 << (len(names) - 2):
            choices.append(((a, b), (b, a)))
            adjacent.add(pair)
        else:
            choices.append((None, (a, b), (b, a)))
    undecided = sum(len(c) == 3 for c in choices)
    branches = min(
        math.prod(len(c) for c in choices), math.factorial(len(names)) << undecided
    )
    if branches > _MAX_BRANCHES:
        raise ValueError(
            f"the constraints leave {undecided} of {len(choices)} variable pairs "
            f"undecided: {branches} search branches exceed the cap of {_MAX_BRANCHES} (3^10)"
        )
    if undecided == 0:
        checked = IndependenceSet.of(separated.values())
    else:
        checked = IndependenceSet.of(
            s for s in constraints.statements if (s.x, s.y) not in adjacent
        )
    index = {v: i for i, v in enumerate(names)}
    groups = [
        (index[x], _mask(index, z), _mask(index, sep + con), _mask(index, con))
        for x, z, sep, con in checked._by_source
    ]
    members = list(_search_dags(names, choices, groups))
    if undecided == 0 and members and not consistent_with(members[0], constraints):
        return []
    members.sort(key=lambda g: tuple(sorted(g.edges)))
    return members


# ---------------------------------------------------------------------------
# Partially directed graphs


@dataclass(frozen=True)
class Pdag:
    """A partially directed graph: directed part acyclic, plus undirected edges.

    Serves as a structural payload and round-trips through the text format;
    no further operations consume the undirected part.
    """

    nodes: frozenset[str]
    directed: frozenset[tuple[str, str]]
    undirected: frozenset[frozenset[str]]

    @classmethod
    def of(
        cls,
        directed: Iterable[tuple[str, str]] = (),
        undirected: Iterable[tuple[str, str]] = (),
        nodes: Iterable[str] = (),
    ) -> "Pdag":
        d = frozenset((a, b) for a, b in directed)
        u = frozenset(frozenset((a, b)) for a, b in undirected)
        return cls(frozenset(nodes).union(*d, *u), d, u)

    def __post_init__(self) -> None:
        # Sorted, so the fault named first does not hang on hash order.
        for pair in sorted(self.undirected, key=lambda p: sorted(_edge_key(p))):
            if len(pair) != 2:
                raise ValueError("undirected edges join two distinct nodes")
            if not pair <= self.nodes:
                raise ValueError(
                    f"undirected edge {sorted(pair, key=str)} uses an undeclared node"
                )
        for a, b in sorted(self.directed, key=_edge_key):
            # A directed self loop is left to Dag, which calls it a cycle.
            if a != b and (b, a) in self.directed:
                raise ValueError(f"both orientations present between {a!r} and {b!r}")
            if frozenset((a, b)) in self.undirected:
                raise ValueError(
                    f"edge between {a!r} and {b!r} is both directed and undirected"
                )
        # Dag checks the names, the directed endpoints and self loops, and
        # the directed part must be acyclic for this to be a PDAG at all.
        Dag(self.nodes, self.directed)


# ---------------------------------------------------------------------------
# Text exchange format


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """The line rule of the graph, constraint and model formats: each line
    of ``text`` with its 1-based number, less its ``#`` comment and the
    whitespace around it; lines left blank are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_graph(text: str) -> Dag | Pdag:
    """Parse edge-list text into a :class:`Dag`, or a :class:`Pdag` if any
    undirected edge appears.

    One edge per line: ``parent -> child`` or ``a -- b``; a bare name
    declares an isolated node; ``#`` starts a comment; blank lines are
    skipped.
    """
    return _graph_of_lines(_content_lines(text))


def _graph_of_lines(lines: Iterable[tuple[int, str]]) -> Dag | Pdag:
    """:func:`parse_graph` over numbered content lines, which a model file's
    graph section passes with the file's own numbers."""
    nodes: set[str] = set()
    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) == 1:
            nodes.add(tokens[0])
        elif len(tokens) == 3 and tokens[1] in ("->", "--"):
            (directed if tokens[1] == "->" else undirected).append((tokens[0], tokens[2]))
        else:
            raise GraphFormatError(lineno, "expected 'a -> b', 'a -- b', or a bare node name")
        for name in tokens[::2]:
            _check_name(name, lineno)
    try:
        if undirected:
            return Pdag.of(directed, undirected, nodes)
        return Dag.of(directed, nodes)
    except ValueError as exc:
        raise GraphFormatError(None, str(exc)) from None


def parse_dag(text: str) -> Dag:
    """Parse edge-list text that must describe a DAG (no undirected edges)."""
    g = parse_graph(text)
    if isinstance(g, Pdag):
        raise GraphFormatError(None, "graph contains undirected edges where a DAG is required")
    return g


def format_graph(g: Dag | Pdag) -> str:
    """Canonical edge-list text: isolated nodes first, then sorted edges."""
    if isinstance(g, Dag):
        directed = sorted(g.edges)
        undirected: list[tuple[str, str]] = []
    else:
        directed = sorted(g.directed)
        undirected = sorted(tuple(sorted(p)) for p in g.undirected)
    touched = {v for e in directed for v in e} | {v for e in undirected for v in e}
    lines = sorted(g.nodes - touched)
    lines += [f"{a} -> {b}" for a, b in directed]
    lines += [f"{a} -- {b}" for a, b in undirected]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Independence-constraint text format (used by the CLI's mec subcommand)


def parse_constraints(text: str, variables: Iterable[str]) -> IndependenceSet:
    """Parse independence constraints, one per line.

    Syntax, with ``_||_`` read as "independent of"::

        S _||_ D | C          # holds, conditioning on C
        not S _||_ C          # dependence, marginal
        not C _||_ D | *      # dependence for *every* conditioning subset

    The conditioning part after ``|`` is a comma- or space-separated list;
    ``*`` expands to every subset of the remaining declared variables.
    """
    names = sorted({_check_name(v) for v in variables})
    name_set = set(names)
    statements: list[IndependenceStatement] = []
    for lineno, line in _content_lines(text):
        holds = True
        if line.startswith("not "):
            holds = False
            line = line[4:].strip()
        if "_||_" not in line:
            raise GraphFormatError(lineno, "expected '<x> _||_ <y> [| <given>]'")
        left, _, right = line.partition("_||_")
        y_part, _, tail = right.partition("|")
        x_tokens, y_tokens = left.split(), y_part.split()
        if len(x_tokens) != 1 or len(y_tokens) != 1:
            raise GraphFormatError(lineno, "expected '<x> _||_ <y> [| <given>]'")
        x, y = x_tokens[0], y_tokens[0]
        every = tail.strip() == "*"
        given = [] if every else tail.replace(",", " ").split()
        for v in (x, y, *given):
            if v not in name_set:
                raise GraphFormatError(lineno, f"undeclared variable {v!r}")
        given_sets = [given]
        if every:
            rest = [v for v in names if v not in (x, y)]
            given_sets = [z for k in range(len(rest) + 1) for z in itertools.combinations(rest, k)]
        try:
            statements.extend(IndependenceStatement(x, y, frozenset(z), holds) for z in given_sets)
        except ValueError as exc:
            raise GraphFormatError(lineno, str(exc)) from None
    try:
        return IndependenceSet.of(statements)
    except ValueError as exc:
        raise GraphFormatError(None, str(exc)) from None


# ---------------------------------------------------------------------------
# Temporal templates

EVERY_STEP = "every"
FIRST_STEP_ONLY = "first"
AFTER_FIRST_STEP = "later"
_QUALIFIERS = (EVERY_STEP, FIRST_STEP_ONLY, AFTER_FIRST_STEP)


@dataclass(frozen=True)
class TemporalTemplate:
    """A repeating graph motif over variable roles, unrolled step by step.

    ``within_step`` edges connect roles inside one time step.  Each entry
    ``(src, dst[, when])`` carries a step qualifier, ``"every"`` by default:
    ``"every"`` instantiates at all steps, ``"first"`` only at step 1,
    ``"later"`` at steps 2 onward.  The qualifiers exist because real
    processes are not always stationary at the boundary: an initialization
    step may feed a variable that, once the process is running, feeds back
    the other way.

    ``across_step`` ``(src, dst)`` edges connect a role at step t to a role
    at step t+1, so they never point backward in time.  Each field takes any
    iterable and is held in one form: roles and cross-step edges as
    frozensets, within-step triples de-duplicated in a sorted tuple.
    """

    roles: frozenset[str]
    within_step: tuple[tuple[str, str, str], ...] = ()
    across_step: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", frozenset(self.roles))
        _check_names(self.roles)
        within: list[tuple[str, str, str]] = []
        for entry in self.within_step:
            if len(entry) not in (2, 3):
                raise ValueError(f"within-step entries are (src, dst[, when]): {entry!r}")
            within.append((entry[0], entry[1], entry[2] if len(entry) == 3 else EVERY_STEP))
        # Sorted as text, so an entry holding a non-string is named, not a TypeError.
        within = sorted(dict.fromkeys(within), key=_edge_key)
        object.__setattr__(self, "within_step", tuple(within))
        object.__setattr__(self, "across_step", frozenset(map(tuple, self.across_step)))
        for src, dst, when in self.within_step:
            if src not in self.roles or dst not in self.roles:
                raise ValueError(f"within-step edge ({src!r}, {dst!r}) uses an unknown role")
            if src == dst:
                raise ValueError(f"within-step self edge on role {src!r}")
            if when not in _QUALIFIERS:
                raise ValueError(
                    f"unknown step qualifier {when!r}; expected one of {_QUALIFIERS}"
                )
        for entry in sorted(self.across_step, key=_edge_key):
            if len(entry) != 2:
                raise ValueError(f"across-step entries are (src, dst): {entry!r}")
            src, dst = entry
            if src not in self.roles or dst not in self.roles:
                raise ValueError(f"cross-step edge ({src!r}, {dst!r}) uses an unknown role")


def unroll(template: TemporalTemplate, steps: int) -> Dag:
    """Instantiate a template into a concrete DAG over ``steps`` time steps.

    Nodes are named ``<role><step>`` from step 1, and two pairs may not share
    a name (``X11`` for roles ``X`` and ``X1``).  Within-step edges follow
    their qualifier's steps; cross-step edges join consecutive steps.  The
    result is validated as a DAG, so a within-step cycle fails loudly.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    nodes: dict[str, tuple[str, int]] = {}
    for role, t in itertools.product(sorted(template.roles), range(1, steps + 1)):
        first = nodes.setdefault(f"{role}{t}", (role, t))
        if first != (role, t):
            raise ValueError(f"node '{role}{t}' is both (role, step) {first} and {(role, t)}")
    edges: list[tuple[str, str]] = []
    for src, dst, when in template.within_step:
        if when == EVERY_STEP:
            instantiated = range(1, steps + 1)
        elif when == FIRST_STEP_ONLY:
            instantiated = range(1, 2)
        else:
            instantiated = range(2, steps + 1)
        for t in instantiated:
            edges.append((f"{src}{t}", f"{dst}{t}"))
    for src, dst in sorted(template.across_step):
        for t in range(1, steps):
            edges.append((f"{src}{t}", f"{dst}{t + 1}"))
    return Dag.of(edges, nodes)


def hidden_confounder_template() -> TemporalTemplate:
    """Reference template: treatment process with a hidden confounder.

    Four roles per step — covariates ``X``, treatment ``A``, hidden
    confounder ``U``, outcome ``Y``.  Covariates drive the outcome and the
    treatment at every step; at the first step they and the treatment also
    initialize the confounder, which from the second step onward feeds the
    covariates instead.  All four roles propagate forward with lag 1 into
    the next step's covariates (and the confounder into itself).

    Unrolled over two steps this yields 8 nodes and 11 edges; the direction
    between X and U flips after initialization, which is exactly the kind of
    non-stationarity the step qualifiers exist to express.
    """
    return TemporalTemplate(
        roles=("X", "A", "U", "Y"),
        within_step=(
            ("X", "Y", EVERY_STEP),
            ("X", "A", EVERY_STEP),
            ("X", "U", FIRST_STEP_ONLY),
            ("A", "U", FIRST_STEP_ONLY),
            ("U", "X", AFTER_FIRST_STEP),
        ),
        across_step=(("X", "X"), ("A", "X"), ("U", "X"), ("U", "U")),
    )
