"""Chains of bundles and the translation from strand spaces to runs.

A chain starts at the empty bundle and grows one bundle at a time.  A
single step B1 -> B2 is witnessed by a bijection f on strands that
respects the agent assignment and satisfies:

  1. every node <s,i> of B1 appears as <f(s),i> in B2 with the same term;
  2. every communication edge of B1 is (under f) an edge of B2;
  3. per agent, the total height grows by at most one node.

When an agent's total grows by exactly one, the step performs that
agent's event: the send or receive written at the one new node.  Reading
off these events along a chain yields a run prefix; the translation of a
space is the set of run prefixes of all its chains.

The bijection search treats each agent independently (f preserves
agents) and is exhaustive over the active strands; the inactive
remainder can always be completed to a bijection and is never recorded.
A useful consequence of clause 1 is that the per-agent multiset of node
terms of B1 reappears in B2, so the event of a step does not depend on
which witness f is found.

`check_step` is the one definition of a step.  `step_graph` builds the
same relation forward, by a breadth-first search from the empty bundle.
From each b1 it takes the maps f that `check_step` tries, in its order
(without its test against b2's heights), and for each f:

  * the base bundle: heights f(s) -> h1(s) and edges f(E1); a send of the
    base that feeds no edge of f(E1) is free;
  * growth: each agent adds nothing or one node, on any of its strands
    below its length (an image of f, or a fresh strand at height 1);
  * the new receives are matched injectively to free or new sends of the
    same message.  A new receive has no out-edge, so no cycle can form;
    B5 and max_nodes are checked on the result.

Every bundle so built is valid and steps from b1 under f, and every
valid b2 within max_nodes that steps from b1 under some f is built from
that f.  `check_step` tries the same
maps in the same order, skipping those that fail its height test, so
the first f that builds a b2 is `check_step`'s witness for (b1, b2).
Every valid bundle is reached (add its nodes in a causal order, f the
identity), so the graph's bundles are those `enumerate_bundles` returns.
Each distinct bundle is one object.  The search records each bundle's
distance, the fewest chain steps from the empty bundle, when it first
reaches the bundle; `bundle_distances` (lemmas 1 and 2) reads these.
The graph is cached per process, and a hit charges the budget what the
graph cost to build.

`translate` runs `systems.explore` over the graph's edges; the run
automaton it returns has one node per global state and set of bundles
that chains of the same run prefix can be at, so its size follows the
distinct such pairs per round, not the number of prefixes.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from typing import Iterator, NamedTuple

from .budget import StateBudget, ensure
from .bundles import EMPTY_BUNDLE, Bundle, ConflictRelation, _matchings
from .core import Event, GlobalState, History, Node, StrandSpace, term_to_event
from .errors import InputError
from .systems import RunAutomaton, RunPrefix, explore


class StepWitness(NamedTuple):
    """Certificate that one bundle steps to another.

    ``f`` is the witnessing bijection restricted to strands active in the
    source bundle; ``extensions`` lists, per extending agent, the strand
    that grew and the event performed.
    """

    f: tuple[tuple[str, str], ...]
    extensions: tuple[tuple[str, str, Event], ...]  # (agent, strand, event)

    def event_map(self) -> dict[str, Event]:
        return {agent: event for agent, _, event in self.extensions}


class ChainPrefix(namedtuple("ChainPrefix", "agents bundles witnesses")):
    """Bundles B_0, ..., B_T from the empty bundle, with step witnesses."""

    __slots__ = ()

    def __new__(
        cls,
        agents: tuple[str, ...],
        bundles: tuple[Bundle, ...],
        witnesses: tuple[StepWitness, ...],
    ):
        if not bundles or not bundles[0].is_empty():
            raise InputError("a chain starts at the empty bundle")
        if len(witnesses) != len(bundles) - 1:
            raise InputError("one witness is required per consecutive bundle pair")
        return tuple.__new__(cls, (agents, bundles, witnesses))

    @property
    def length(self) -> int:
        return len(self.bundles) - 1

    def final(self) -> Bundle:
        return self.bundles[-1]


def _agent_node_counts(space: StrandSpace, bundle: Bundle) -> dict[str, int]:
    counts = {a: 0 for a in space.agents}
    for sid, h in bundle.heights:
        counts[space.agent_of(sid)] += h
    return counts


def _injections(sources: list, targets_per_source: list[list]) -> list[dict]:
    """All injective choices of a distinct target for each source."""
    out: list[dict] = []

    def rec(i: int, acc: dict, used: set):
        if i == len(sources):
            out.append(dict(acc))
            return
        for t in targets_per_source[i]:
            if t not in used:
                acc[sources[i]] = t
                used.add(t)
                rec(i + 1, acc, used)
                used.discard(t)
                del acc[sources[i]]

    rec(0, {}, set())
    return out


def check_step(space: StrandSpace, b1: Bundle, b2: Bundle) -> StepWitness | None:
    """Search for a witness that b1 steps to b2; None when there is none."""
    h1, h2 = b1.height_map, b2.height_map
    counts1 = _agent_node_counts(space, b1)
    counts2 = _agent_node_counts(space, b2)
    diffs = {a: counts2[a] - counts1[a] for a in space.agents}
    if any(d < 0 or d > 1 for d in diffs.values()):
        return None

    by_agent: dict[str, list[str]] = {}
    for sid in b1.active_strands():
        by_agent.setdefault(space.agent_of(sid), []).append(sid)

    per_agent_choices: list[list[dict]] = []
    for agent in sorted(by_agent):
        sources = by_agent[agent]
        targets: list[list[str]] = []
        for sid in sources:
            prefix = space.strand(sid).trace[: h1[sid]]
            targets.append(
                [
                    t.id
                    for t in space.strands_of(agent)
                    if h2.get(t.id, 0) >= h1[sid] and t.trace[: h1[sid]] == prefix
                ]
            )
        choices = _injections(sources, targets)
        if not choices:
            return None
        per_agent_choices.append(choices)

    for combo in itertools.product(*per_agent_choices):
        f: dict[str, str] = {}
        for part in combo:
            f.update(part)
        if all(
            (Node(f[n1.strand], n1.index), Node(f[n2.strand], n2.index)) in b2.edges
            for n1, n2 in b1.edges
        ):
            extensions = []
            covered = {f[s]: h1[s] for s in f}
            for agent, d in sorted(diffs.items()):
                if d != 1:
                    continue
                for t in space.strands_of(agent):
                    height = h2.get(t.id, 0)
                    if height > covered.get(t.id, 0):
                        event = term_to_event(t.trace[height - 1])
                        extensions.append((agent, t.id, event))
                        break
            return StepWitness(
                f=tuple(sorted(f.items())), extensions=tuple(extensions)
            )
    return None


class StepGraph(NamedTuple):
    """All bundles within a node budget, their step successors and their
    distances, the fewest chain steps from the empty bundle."""

    bundles: tuple[Bundle, ...]
    successors: dict
    distance: dict[Bundle, int]


class _NewNode(NamedTuple):
    """A node a step may add: the one that grows ``strand`` to ``height``."""

    strand: str
    height: int
    node: Node
    send: bool
    message: str
    extension: tuple[str, str, Event]  # the step's (agent, strand, event)


# (space, conf, max_nodes) -> (graph, budget ticks its construction cost)
_GRAPH_CACHE: dict = {}


def _witness_maps(space: StrandSpace, b1: Bundle) -> Iterator[dict[str, str]]:
    """The maps f that `check_step` tries from b1, in its order, before it
    compares heights with a b2: per agent, in sorted order, every injective
    choice of a same-agent strand, taken in `strands_of` order, whose trace
    starts with the source's prefix in b1; then the product over agents."""
    h1 = b1.height_map
    by_agent: dict[str, list[str]] = {}
    for sid in b1.active_strands():
        by_agent.setdefault(space.agent_of(sid), []).append(sid)
    per_agent = []
    for agent in sorted(by_agent):
        sources = by_agent[agent]
        targets = []
        for sid in sources:
            prefix = space.strand(sid).trace[: h1[sid]]
            targets.append(
                [t.id for t in space.strands_of(agent) if t.trace[: h1[sid]] == prefix]
            )
        per_agent.append(_injections(sources, targets))
    for combo in itertools.product(*per_agent):
        f: dict[str, str] = {}
        for part in combo:
            f.update(part)
        yield f


def step_graph(
    space: StrandSpace,
    conf: ConflictRelation | None = None,
    max_nodes: int = 8,
    budget: StateBudget | None = None,
) -> StepGraph:
    """All bundles within max_nodes with their step successors.

    A breadth-first search from the empty bundle builds each bundle's
    successors forward (see the module docstring), one budget tick per
    candidate bundle generated.  A cache hit charges the budget what the
    graph cost, as a cold call would."""
    if max_nodes < 0:
        raise InputError("max_nodes must be non-negative")
    budget = ensure(budget)
    key = (space, conf, max_nodes)
    if key in _GRAPH_CACHE:
        graph, cost = _GRAPH_CACHE[key]
        budget.tick(cost)
        return graph
    used_before = budget.used
    new_nodes = {
        (s.id, i): _NewNode(
            s.id, i, Node(s.id, i), term.positive, term.message,
            (space.agent_of(s.id), s.id, term_to_event(term)),
        )
        for s in space.strands
        for i, term in enumerate(s.trace, start=1)
    }
    strands_by_agent = [space.strands_of(a) for a in space.agents]
    # every bundle reached -> (its one shared object, its sort key); the
    # search is breadth-first, so a distance set on first reach is least
    reached = {EMPTY_BUNDLE: (EMPTY_BUNDLE, EMPTY_BUNDLE.sort_key())}
    distance = {EMPTY_BUNDLE: 0}
    queue = deque([EMPTY_BUNDLE])

    def successors_of(b1: Bundle) -> tuple:
        found: dict[Bundle, StepWitness] = {}
        count = b1.node_count()
        identity = {s: s for s in b1.active_strands()}
        for f in _witness_maps(space, b1):
            if f == identity:
                heights, edges = b1.height_map, b1.edges
            else:
                heights = {f[s]: h for s, h in b1.heights}
                edges = frozenset(
                    (Node(f[n1.strand], n1.index), Node(f[n2.strand], n2.index))
                    for n1, n2 in b1.edges
                )
            senders = {n1 for n1, _ in edges}
            free: dict[str, list[Node]] = {}
            for sid, h in heights.items():
                for i in range(1, h + 1):
                    n = new_nodes[sid, i]
                    if n.send and n.node not in senders:
                        free.setdefault(n.message, []).append(n.node)
            # per agent: the nodes it could add, one per strand below its length
            growth = [
                [new_nodes[t.id, heights.get(t.id, 0) + 1] for t in strands
                 if heights.get(t.id, 0) < len(t)]
                for strands in strands_by_agent
            ]
            sendable = free.keys() | {n.message for opts in growth for n in opts if n.send}
            options = [
                [None, *(n for n in opts if n.send or n.message in sendable)]
                for opts in growth
            ]
            f_items = tuple(sorted(f.items()))
            for combo in itertools.product(*options):
                grown = [n for n in combo if n is not None]
                if count + len(grown) > max_nodes:
                    continue
                if conf is not None:
                    active = set(heights).union(n.strand for n in grown)
                    if any(x in active and y in active for x, y in conf):
                        continue
                new_sends: dict[str, list[Node]] = {}
                recvs: dict[str, list[Node]] = {}
                for n in grown:
                    (new_sends if n.send else recvs).setdefault(n.message, []).append(n.node)
                per_message = [
                    list(_matchings(rs, free.get(m, []) + new_sends.get(m, [])))
                    for m, rs in recvs.items()
                ]
                grown_heights = dict(heights)
                grown_heights.update((n.strand, n.height) for n in grown)
                heights_key = tuple(sorted(grown_heights.items()))
                for matching in itertools.product(*per_message):
                    budget.tick()
                    new_edges = [e for group in matching for e in group]
                    b2 = Bundle(heights_key, edges.union(new_edges) if new_edges else edges)
                    if b2 in found:
                        continue
                    shared = reached.get(b2)
                    if shared is None:
                        reached[b2] = (b2, b2.sort_key())
                        distance[b2] = distance[b1] + 1
                        queue.append(b2)
                    else:
                        b2 = shared[0]
                    found[b2] = StepWitness(f_items, tuple(n.extension for n in grown))
        return tuple(sorted(found.items(), key=lambda pair: reached[pair[0]][1]))

    successors: dict[Bundle, tuple] = {}
    while queue:
        b1 = queue.popleft()
        successors[b1] = successors_of(b1)
    bundles = tuple(sorted(reached, key=lambda b: reached[b][1]))
    graph = StepGraph(
        bundles=bundles,
        successors={b: successors[b] for b in bundles},
        distance={b: distance[b] for b in bundles},
    )
    _GRAPH_CACHE[key] = (graph, budget.used - used_before)
    return graph


def bundle_distances(
    space: StrandSpace,
    conf: ConflictRelation | None = None,
    max_nodes: int = 8,
    budget: StateBudget | None = None,
) -> dict[Bundle, int]:
    """Fewest chain steps to each reachable bundle: a copy of the step
    graph's own, which the graph cache shares."""
    return dict(step_graph(space, conf, max_nodes, budget).distance)


def enumerate_chain_prefixes(
    space: StrandSpace,
    conf: ConflictRelation | None = None,
    horizon: int = 0,
    max_nodes: int = 8,
    budget: StateBudget | None = None,
) -> tuple[ChainPrefix, ...]:
    """All chain prefixes of exactly the given length, in a fixed order."""
    if horizon < 0:
        raise InputError("horizon must be non-negative")
    budget = ensure(budget)
    graph = step_graph(space, conf, max_nodes, budget)
    agents = space.agents
    prefixes: list[tuple[tuple[Bundle, ...], tuple[StepWitness, ...]]] = [
        ((EMPTY_BUNDLE,), ())
    ]
    for _ in range(horizon):
        extended = []
        for bundles, witnesses in prefixes:
            for b2, w in graph.successors[bundles[-1]]:
                budget.tick()
                extended.append((bundles + (b2,), witnesses + (w,)))
        prefixes = extended
    return tuple(
        ChainPrefix(agents=agents, bundles=bs, witnesses=ws) for bs, ws in prefixes
    )


def hist(chain: ChainPrefix, agent: str, m: int) -> History:
    """The history agent has accumulated after the first m steps."""
    if agent not in chain.agents:
        raise InputError(f"unknown agent: {agent!r}")
    if not 0 <= m <= chain.length:
        raise InputError(f"step index {m} out of range 0..{chain.length}")
    events: list[Event] = []
    for witness in chain.witnesses[:m]:
        event = witness.event_map().get(agent)
        if event is not None:
            events.append(event)
    return tuple(events)


def run_from_chain(chain: ChainPrefix) -> RunPrefix:
    """The run prefix reading off each agent's events along the chain."""
    states = [GlobalState.empty(chain.agents)]
    for witness in chain.witnesses:
        states.append(states[-1].extend(witness.event_map()))
    return RunPrefix.of(states)


def translate(
    space: StrandSpace,
    conf: ConflictRelation | None = None,
    horizon: int = 0,
    max_nodes: int = 8,
    budget: StateBudget | None = None,
) -> RunAutomaton:
    """The run prefixes of all chains of the space, at the given horizon.

    Rather than materializing every chain, the search tracks, per run
    prefix, the set of bundles its chains can currently be at, and
    prefixes that end in the same global state and bundle set share one
    automaton node.  A node's next states are the step edges out of its
    bundle set, grouped by the event map they perform; each group's
    targets form the next bundle set.
    """
    if horizon < 0:
        raise InputError("horizon must be non-negative")
    budget = ensure(budget)
    graph = step_graph(space, conf, max_nodes, budget)

    def successors(g: GlobalState, bundle_set: frozenset[Bundle]):
        groups: dict[tuple[tuple[str, Event], ...], set[Bundle]] = {}
        for b in bundle_set:
            for b2, witness in graph.successors[b]:
                key = tuple(sorted(witness.event_map().items()))
                groups.setdefault(key, set()).add(b2)
        return [(g.extend(dict(key)), frozenset(bs)) for key, bs in groups.items()]

    start = (GlobalState.empty(space.agents), frozenset({EMPTY_BUNDLE}))
    return explore([start], successors, horizon, budget)
