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
whole step relation with it, trying each bundle only against the bundles
whose per-agent node counts are its own plus at most one per agent (the
pairs clause 3 allows), so its edges and witnesses are those of a scan
over every pair.  It is cached per process, and a hit charges the budget
what the graph cost to build.  `translate` runs `systems.explore` over
its edges; the run automaton it returns has one node per global state
and set of bundles that chains of the same run prefix can be at, so its
size follows the distinct such pairs per round, not the number of
prefixes.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .budget import StateBudget, ensure
from .bundles import (
    EMPTY_BUNDLE,
    Bundle,
    ConflictRelation,
    enumerate_bundles,
)
from .core import Event, GlobalState, History, Node, StrandSpace, term_to_event
from .errors import InputError
from .systems import RunAutomaton, RunPrefix, explore


@dataclass(frozen=True)
class StepWitness:
    """Certificate that one bundle steps to another.

    ``f`` is the witnessing bijection restricted to strands active in the
    source bundle; ``extensions`` lists, per extending agent, the strand
    that grew and the event performed.
    """

    f: tuple[tuple[str, str], ...]
    extensions: tuple[tuple[str, str, Event], ...]  # (agent, strand, event)

    def event_map(self) -> dict[str, Event]:
        return {agent: event for agent, _, event in self.extensions}


@dataclass(frozen=True)
class ChainPrefix:
    """Bundles B_0, ..., B_T from the empty bundle, with step witnesses."""

    agents: tuple[str, ...]
    bundles: tuple[Bundle, ...]
    witnesses: tuple[StepWitness, ...]

    def __post_init__(self):
        if not self.bundles or not self.bundles[0].is_empty():
            raise InputError("a chain starts at the empty bundle")
        if len(self.witnesses) != len(self.bundles) - 1:
            raise InputError("one witness is required per consecutive bundle pair")

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


@dataclass(frozen=True)
class StepGraph:
    """All bundles of a space within a node budget, with step successors."""

    bundles: tuple[Bundle, ...]
    successors: dict

    def succ(self, b: Bundle) -> tuple:
        return self.successors[b]


# (space, conf, max_nodes) -> (graph, budget ticks its construction cost)
_GRAPH_CACHE: dict = {}


def step_graph(
    space: StrandSpace,
    conf: ConflictRelation | None = None,
    max_nodes: int = 8,
    budget: StateBudget | None = None,
) -> StepGraph:
    """All bundles within max_nodes with their step successors.

    `check_step` alone decides each edge.  It is asked only about pairs it
    would not reject at clause 3: bundles are bucketed by their per-agent
    node counts, and each b1 is tried against the buckets of its counts
    plus a 0/1 vector over the agents, one budget tick per call.  A cache
    hit charges the budget what the graph cost, as a cold call would."""
    budget = ensure(budget)
    key = (space, conf, max_nodes)
    if key in _GRAPH_CACHE:
        graph, cost = _GRAPH_CACHE[key]
        budget.tick(cost)
        return graph
    used_before = budget.used
    bundles = enumerate_bundles(space, conf, max_nodes, budget=budget)
    counts = {b: tuple(_agent_node_counts(space, b).values()) for b in bundles}
    by_counts: dict[tuple[int, ...], list[Bundle]] = {}
    for b, c in counts.items():
        by_counts.setdefault(c, []).append(b)
    successors: dict[Bundle, tuple] = {}
    for b1 in bundles:
        succ = []
        for grown in itertools.product(*((c, c + 1) for c in counts[b1])):
            for b2 in by_counts.get(grown, ()):
                budget.tick()
                witness = check_step(space, b1, b2)
                if witness is not None:
                    succ.append((b2, witness))
        succ.sort(key=lambda pair: pair[0].sort_key())
        successors[b1] = tuple(succ)
    graph = StepGraph(bundles=bundles, successors=successors)
    _GRAPH_CACHE[key] = (graph, budget.used - used_before)
    return graph


def bundle_distances(
    space: StrandSpace,
    conf: ConflictRelation | None = None,
    max_nodes: int = 8,
    budget: StateBudget | None = None,
) -> dict[Bundle, int]:
    """Fewest chain steps needed to reach each reachable bundle."""
    graph = step_graph(space, conf, max_nodes, budget)
    dist = {EMPTY_BUNDLE: 0}
    queue = deque([EMPTY_BUNDLE])
    while queue:
        b = queue.popleft()
        for b2, _ in graph.succ(b):
            if b2 not in dist:
                dist[b2] = dist[b] + 1
                queue.append(b2)
    return dist


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
            for b2, w in graph.succ(bundles[-1]):
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
            for b2, witness in graph.succ(b):
                key = tuple(sorted(witness.event_map().items()))
                groups.setdefault(key, set()).add(b2)
        return [(g.extend(dict(key)), frozenset(bs)) for key, bs in groups.items()]

    start = (GlobalState.empty(space.agents), frozenset({EMPTY_BUNDLE}))
    return explore([start], successors, horizon, budget)
