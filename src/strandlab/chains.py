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

`check_step` is the one definition of a step: it tests a given pair
(b1, b2) against the three clauses.  No command runs it; the tests
compare `step_graph` with it on every pair of bundles.  It stays here,
not with the other references in ``tests/reference.py``, only while the
benchmark's tracer (``perfbench/trace_cli.py``) wraps it by name.

`step_graph` builds the same relation forward, by a breadth-first search
from the empty bundle.  From each b1 it takes the maps f that
`check_step` tries, in its order (without its test against b2's
heights), and for each f:

  * the base bundle: heights f(s) -> h1(s) and edges f(E1).  A base with
    two conflicting strands is refused with all its growth (B5); a send
    of the base that feeds no edge of f(E1) is free;
  * growth: each agent adds nothing or one node, on any of its strands
    below its length (an image of f, or a fresh strand at height 1 that
    conflicts with no strand of the base), within max_nodes.  Conflicts
    pair strands of one agent, and an agent adds at most one node, so no
    two fresh strands of one step conflict;
  * the new receives are matched injectively to free or new sends of the
    same message.  A new receive has no out-edge, so no cycle can form.

Every bundle so built is valid and steps from b1 under f, and every
valid b2 within max_nodes that steps from b1 under some f is built from
that f.  `check_step` tries the same maps in the same order, skipping
those that fail its height test, so the first f that builds a b2 is
`check_step`'s witness for (b1, b2).  Every valid bundle is reached (add
its nodes in a causal order, f the identity), so the graph's bundles are
those `enumerate_bundles` returns.

The search runs on `bundles.KeyedSpace` keys (see the `bundles`
docstring).  Growing a strand adds its place value to the key and a new
edge its pair key, so each candidate is built, and compared with those
found, as one integer.  f(b1) is re-encoded only when f is not the
identity, and the prefix matches the maps are drawn from are one table
per space.  Each agent's growth options are listed once per base.  A new
receive may be fed by a send of the same step, so a step's nodes are
chosen in two passes: first each agent adds one of its sends or nothing
yet; then each agent that did not send stays or adds a receive, which
takes a free send of its message (one of the base's, or a new one) that
no other receive took.  A receive is chosen only when there is a send
for it to take, so every branch of the search is a candidate, one
(growth, matching) pair; each is generated exactly once and ticks the
budget once.  A candidate's extensions are listed in agent order,
whichever pass chose them.

A key is decoded to a `Bundle` when the search first reaches it, so each
distinct bundle is one object, and each distinct (f, extensions) pair is
one `StepWitness`.  The order of the search does not show in the graph:
under one f, candidates with the same key grow the same strands and so
have the same extensions; the first f that builds a key keeps its
witness; and each bundle's successors are sorted by the rank of
`Bundle.sort_key` among all bundles.  The search records each bundle's
distance, the fewest chain steps from the empty bundle, when it first
reaches the bundle; lemmas 1 and 2 read these.
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
from .bundles import EMPTY_BUNDLE, Bundle, KeyedSpace
from .core import Event, GlobalState, Node, StrandSpace, term_to_event
from .errors import InputError
from .systems import RunAutomaton, explore


class StepWitness(NamedTuple):
    """Certificate that one bundle steps to another.

    ``f`` is the witnessing bijection restricted to strands active in the
    source bundle; ``extensions`` lists, per extending agent in
    increasing agent order, the strand that grew and the event performed.
    """

    f: tuple[tuple[str, str], ...]
    extensions: tuple[tuple[str, str, Event], ...]  # (agent, strand, event)


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

    def final(self) -> Bundle:
        return self.bundles[-1]


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
    agent_of = dict(space.assignment)
    unknown = (h1.keys() | h2.keys()) - agent_of.keys()
    if unknown:
        raise InputError(f"unknown strand id: {min(unknown)!r}")
    diffs = {a: 0 for a in space.agents}
    for sid, h in b2.heights:
        diffs[agent_of[sid]] += h
    for sid, h in b1.heights:
        diffs[agent_of[sid]] -= h
    if any(d < 0 or d > 1 for d in diffs.values()):
        return None
    strands_of: dict[str, list] = {a: [] for a in space.agents}
    for s in space.strands:
        strands_of[agent_of[s.id]].append(s)

    by_agent: dict[str, list[str]] = {}
    for sid in b1.active_strands():
        by_agent.setdefault(agent_of[sid], []).append(sid)

    per_agent_choices: list[list[dict]] = []
    for agent in sorted(by_agent):
        sources = by_agent[agent]
        targets: list[list[str]] = []
        for sid in sources:
            prefix = space.strand(sid).trace[: h1[sid]]
            targets.append(
                [
                    t.id
                    for t in strands_of[agent]
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
                for t in strands_of[agent]:
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
    """Every bundle within a node budget, in `Bundle.sort_key` order, with
    its step successors and its distance, the fewest chain steps from the
    empty bundle."""

    successors: dict
    distance: dict[Bundle, int]


class _Growth(NamedTuple):
    """The node a step may add to a strand of the given height: the key's
    code grows by ``delta``."""

    delta: int
    node: int
    send: bool
    message: int
    conflicts: int  # the strands it conflicts with when fresh, else 0
    extension: tuple[str, str, Event]  # the step's (agent, strand, event)


# (space, max_nodes) -> (graph, budget ticks its construction cost)
_GRAPH_CACHE: dict = {}


class _StepSpace(KeyedSpace):
    """Keyed bundles with the step search and the tables it reads."""

    def __init__(self, space: StrandSpace):
        super().__init__(space)
        strands, index = self.strands, self.index
        # per agent, its strands' numbers in `strands_of` order: growth runs
        # over space.agents, the witness maps over the sorted agents
        agent = dict(space.assignment)
        self.agent_strands = [
            [index[s.id] for s in space.strands if agent[s.id] == a] for a in space.agents
        ]
        self.agent_of: dict[int, str] = {}
        # match[i][h]: the same-agent strands whose trace starts with strand
        # i's first h terms, in `strands_of` order
        self.match: list[list[tuple[int, ...]]] = [[] for _ in strands]
        self.growth: list[list[_Growth]] = [[] for _ in strands]
        for agent, numbers in zip(space.agents, self.agent_strands):
            for i in numbers:
                s, node = strands[i], self.offset[i]
                self.agent_of[i] = agent
                self.match[i] = [
                    tuple(j for j in numbers if strands[j].trace[:h] == s.trace[:h])
                    for h in range(len(s) + 1)
                ]
                self.growth[i] = [
                    _Growth(
                        self.radix[i], node + h, term.positive,
                        self.message[node + h], 0 if h else self.conflicts[i],
                        (agent, s.id, term_to_event(term)),
                    )
                    for h, term in enumerate(s.trace)
                ]
        # f -> extensions -> their one witness
        self.witnesses: dict[tuple, dict[tuple, StepWitness]] = {}

    def _witness_maps(self, heights: list[int], active: list[int]) -> Iterator[dict | None]:
        """The maps f that `check_step` tries from a bundle, in its order,
        before it compares heights with a b2: per agent, in sorted order,
        every injective choice of a matching strand for each active one;
        then the product over agents.  None stands for the identity."""
        if all(len(self.match[i][heights[i]]) == 1 for i in active):
            yield None
            return
        by_agent: dict[str, list[int]] = {}
        for i in active:
            by_agent.setdefault(self.agent_of[i], []).append(i)
        per_agent = [
            _injections(sources, [self.match[i][heights[i]] for i in sources])
            for _, sources in sorted(by_agent.items())
        ]
        for combo in itertools.product(*per_agent):
            f: dict[int, int] = {}
            for part in combo:
                f.update(part)
            yield None if all(s == t for s, t in f.items()) else f

    def successors(self, key: int, max_nodes: int, budget: StateBudget) -> dict[int, StepWitness]:
        """The keys of the bundles the bundle ``key`` steps to, each with the
        witness of the first map f that builds it; one tick per candidate."""
        heights, pairs = self.decode(key)
        active = [i for i, h in enumerate(heights) if h]
        room = max_nodes - sum(heights)
        ids, offset, strand_of = self.ids, self.offset, self.strand_of
        found: dict[int, StepWitness] = {}
        for f in self._witness_maps(heights, active):
            if f is None:
                f_items = tuple((ids[i], ids[i]) for i in active)
                self._grow(heights, active, key, pairs, f_items, room, found, budget)
                continue
            image = [0] * len(heights)
            for i in active:
                image[f[i]] = heights[i]
            shift = {i: offset[f[i]] - offset[i] for i in active}
            image_pairs = [(a + shift[strand_of[a]], b + shift[strand_of[b]]) for a, b in pairs]
            image_key = self.encode(image, image_pairs)
            f_items = tuple((ids[i], ids[f[i]]) for i in active)
            image_active = [f[i] for i in active]
            self._grow(image, image_active, image_key, image_pairs, f_items, room, found, budget)
        return found

    def _grow(
        self,
        heights: list[int],
        active: list[int],
        key: int,
        pairs: list[tuple[int, int]],
        f_items: tuple[tuple[str, str], ...],
        room: int,
        found: dict[int, StepWitness],
        budget: StateBudget,
    ) -> None:
        """Add to ``found`` the candidates grown from the base bundle ``key``
        (heights, active strands and edge pairs given) that are new to it:
        the agents' new sends first, then their new receives."""
        present = 0
        for t in active:
            present |= 1 << t
        conflicts = self.conflicts
        if any(conflicts[t] & present for t in active):
            return
        # the sends a new receive may take, per message: at first the base's
        # sends that feed no edge
        used = {a for a, _ in pairs}
        free: list[list[int]] = [[] for _ in range(self.messages)]
        for t in active:
            for a in range(self.offset[t], self.offset[t] + heights[t]):
                if self.send[a] and a not in used:
                    free[self.message[a]].append(a)
        # per agent that can grow, its send and its receive options
        sends: list[list[_Growth]] = []
        receives: list[list[_Growth]] = []
        for numbers in self.agent_strands:
            opts = [self.growth[t][heights[t]] for t in numbers if heights[t] < self.lengths[t]]
            opts = [g for g in opts if not g.conflicts & present]
            if opts:
                sends.append([g for g in opts if g.send])
                receives.append([g for g in opts if not g.send])
        chosen: list = [None] * len(sends)  # per agent, the extension it adds
        witnesses = self.witnesses.setdefault(f_items, {})
        pair_key, tick, agents = self.pair_key, budget.tick, len(sends)

        def send(k: int, key2: int, added: int) -> None:
            """Pass 1: agents k, ... each add one of their sends or nothing
            yet, and each such choice goes on to pass 2."""
            receive(0, key2, added)
            if added == room:
                return
            for j in range(k, agents):
                for delta, node, _, m, _, ext in sends[j]:
                    chosen[j] = ext
                    free[m].append(node)
                    send(j + 1, key2 + delta, added + 1)
                    free[m].pop()
                chosen[j] = None

        def receive(k: int, key2: int, added: int) -> None:
            """Pass 2: the candidate of the nodes chosen so far, then those
            where agents k, ... that did not send add a receive, each taking
            a free send of its message that no other receive took."""
            tick()
            if key2 not in found:
                grown = tuple(filter(None, chosen))
                witness = witnesses.get(grown)
                if witness is None:
                    witness = witnesses[grown] = StepWitness(f_items, grown)
                found[key2] = witness
            if added == room:
                return
            for j in range(k, agents):
                if chosen[j] is not None:
                    continue
                for delta, node, _, m, _, ext in receives[j]:
                    senders = free[m]
                    chosen[j] = ext
                    for i, s in enumerate(senders):
                        del senders[i]
                        receive(j + 1, key2 + delta + pair_key[s, node], added + 1)
                        senders.insert(i, s)
                chosen[j] = None

        send(0, key, 0)


def step_graph(
    space: StrandSpace,
    max_nodes: int = 8,
    budget: StateBudget | None = None,
) -> StepGraph:
    """All bundles within max_nodes with their step successors.

    A breadth-first search from the empty bundle builds each bundle's
    successors forward (see the module docstring).  It works on bundle
    keys and decodes a key to its one shared `Bundle` when it first
    reaches it.  Each candidate, one choice of growth and receive
    matching under one witness map, ticks the budget once, in whatever
    order the search meets it.  Each bundle's successors are sorted by
    `Bundle.sort_key`, each with the witness of the first map that builds
    it.  A cache hit charges the budget what the graph cost, as a cold
    call would."""
    if max_nodes < 0:
        raise InputError("max_nodes must be non-negative")
    budget = ensure(budget)
    key = (space, max_nodes)
    if key in _GRAPH_CACHE:
        graph, cost = _GRAPH_CACHE[key]
        budget.tick(cost)
        return graph
    used_before = budget.used
    keyed = _StepSpace(space)
    # the search is breadth-first, so a distance set on first reach is least
    bundle = {0: EMPTY_BUNDLE}
    distance = {0: 0}
    successors: dict[int, dict[int, StepWitness]] = {}
    queue = deque([0])
    while queue:
        k1 = queue.popleft()
        found = successors[k1] = keyed.successors(k1, max_nodes, budget)
        for k2 in found:
            if k2 not in distance:
                distance[k2] = distance[k1] + 1
                bundle[k2] = keyed.bundle(k2)
                queue.append(k2)
    order = sorted(bundle, key=lambda k: bundle[k].sort_key())
    rank = {k: r for r, k in enumerate(order)}
    graph = StepGraph(
        successors={
            bundle[k1]: tuple(
                (bundle[k2], successors[k1][k2])
                for k2 in sorted(successors[k1], key=rank.__getitem__)
            )
            for k1 in order
        },
        distance={bundle[k]: distance[k] for k in order},
    )
    _GRAPH_CACHE[key] = (graph, budget.used - used_before)
    return graph


def enumerate_chain_prefixes(
    space: StrandSpace,
    horizon: int = 0,
    max_nodes: int = 8,
    budget: StateBudget | None = None,
) -> tuple[ChainPrefix, ...]:
    """All chain prefixes of exactly the given length, in a fixed order."""
    if horizon < 0:
        raise InputError("horizon must be non-negative")
    budget = ensure(budget)
    graph = step_graph(space, max_nodes, budget)
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


def translate(
    space: StrandSpace,
    horizon: int = 0,
    max_nodes: int = 8,
    budget: StateBudget | None = None,
) -> RunAutomaton:
    """The run prefixes of all chains of the space, at the given horizon.

    Rather than materializing every chain, the search tracks, per run
    prefix, the set of bundles its chains can currently be at, and
    prefixes that end in the same global state and bundle set share one
    automaton node.  A node's next states are the step edges out of its
    bundle set, grouped by the (agent, event) moves they perform, read
    off each witness's extensions in agent order; each group's targets
    form the next bundle set.
    """
    if horizon < 0:
        raise InputError("horizon must be non-negative")
    budget = ensure(budget)
    graph = step_graph(space, max_nodes, budget)

    def successors(g: GlobalState, bundle_set: frozenset[Bundle]):
        groups: dict[tuple[tuple[str, Event], ...], set[Bundle]] = {}
        for b in bundle_set:
            for b2, witness in graph.successors[b]:
                key = tuple((a, e) for a, _, e in witness.extensions)
                groups.setdefault(key, set()).add(b2)
        return [(g.extend(dict(key)), frozenset(bs)) for key, bs in groups.items()]

    start = (GlobalState.empty(space.agents), frozenset({EMPTY_BUNDLE}))
    return explore([start], successors, space.agents, horizon, budget)
