"""Slow, obviously correct references for the test suite.

The paper's definitions as literally as the model allows (the bundle
axioms, the term at a node, a chain's histories and run, message
equivalence, monotone realization) and brute-force versions of the
package's searches, parsers and writers.  The package runs keyed,
cached versions of these; the tests compare the two.  Nothing under
``src/`` imports this module.

`chains.check_step`, the literal definition of a chain step, is the one
reference that stays in the package (see the `chains` docstring).
"""

from __future__ import annotations

import json
from collections import deque
from itertools import product
from typing import Iterable, NamedTuple

from strandlab.bundles import EMPTY_BUNDLE, Bundle, CommEdge, enumerate_bundles
from strandlab.chains import ChainPrefix, StepWitness, check_step
from strandlab.core import (
    Event, GlobalState, History, Node, SignedTerm, StrandSpace, event_to_term, recv, sent,
)
from strandlab.documents import ChainsDocument, parse_event
from strandlab.errors import InputError
from strandlab.protocols import MonotoneSpec, TableSpec, eval_protocol, spec_messages
from strandlab.systems import RunAutomaton, RunPrefix, check_mp


def term_of(space: StrandSpace, node: Node) -> SignedTerm:
    """The signed term at a node of the space."""
    strand = space.strand(node.strand)
    if not 1 <= node.index <= len(strand):
        raise InputError(
            f"node index {node.index} out of range for strand {node.strand!r} "
            f"(trace length {len(strand)})"
        )
    return strand.trace[node.index - 1]


def causal_edges(bundle: Bundle) -> list[CommEdge]:
    """All edges of the causal graph: communication plus strand successors."""
    successors = [
        (Node(s, i), Node(s, i + 1)) for s, h in bundle.heights for i in range(1, h)
    ]
    return sorted(bundle.edges) + successors


def toposort(nodes: list[Node], edges: list[CommEdge]) -> list[Node] | None:
    """Kahn's algorithm over a bundle's causal graph; None when it has a
    cycle."""
    indeg = {n: 0 for n in nodes}
    out: dict[Node, list[Node]] = {n: [] for n in nodes}
    for a, b in edges:
        out[a].append(b)
        indeg[b] += 1
    frontier = [n for n in nodes if indeg[n] == 0]
    order: list[Node] = []
    while frontier:
        n = frontier.pop()
        order.append(n)
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                frontier.append(m)
    return order if len(order) == len(nodes) else None


class BundleReport(NamedTuple):
    """Per-axiom pass/fail with human-readable problem descriptions."""

    problems: tuple[tuple[str, str], ...]  # (axiom key, description)
    checked_b5: bool

    @property
    def ok(self) -> bool:
        return not self.problems

    def failed_axioms(self) -> tuple[str, ...]:
        seen: list[str] = []
        for key, _ in self.problems:
            if key not in seen:
                seen.append(key)
        return tuple(seen)


def validate_bundle(space: StrandSpace, bundle: Bundle) -> BundleReport:
    """Check the bundle axioms over the given space.

    B5 is checked only when the space has a conflict relation.  Unknown
    strand ids raise an input error rather than being reported: a bundle
    over the wrong space is a caller mistake, not an axiom failure.
    """
    problems: list[tuple[str, str]] = []
    for sid, h in bundle.heights:
        strand = space.strand(sid)  # raises InputError on unknown ids
        if h > len(strand):
            problems.append(
                ("edges", f"height {h} exceeds trace length of strand {sid}")
            )

    in_height = set(bundle.nodes())

    def term_str(node: Node) -> str:
        return f"{term_of(space, node)}@<{node.strand},{node.index}>"

    senders_used: dict[Node, int] = {}
    for sender, receiver in sorted(bundle.edges):
        for node in (sender, receiver):
            space.strand(node.strand)
        if sender not in in_height or receiver not in in_height:
            problems.append(
                ("edges", f"edge endpoint outside bundle: {sender} -> {receiver}")
            )
            continue
        t1, t2 = term_of(space, sender), term_of(space, receiver)
        if not t1.positive or t2.positive or t1.message != t2.message:
            problems.append(
                ("edges", f"edge terms do not match: {term_str(sender)} -> {term_str(receiver)}")
            )
        senders_used[sender] = senders_used.get(sender, 0) + 1
    for sender, count in sorted(senders_used.items()):
        if count > 1:
            problems.append(
                ("edges", f"send node {sender} matched to {count} receives")
            )

    receivers = {receiver for _, receiver in bundle.edges}
    for node in sorted(in_height):
        if not term_of(space, node).positive and node not in receivers:
            problems.append(
                ("B2", f"receive node <{node.strand},{node.index}> has no sender")
            )
    # A receive with two incoming edges also violates uniqueness.
    incoming: dict[Node, int] = {}
    for _, receiver in bundle.edges:
        incoming[receiver] = incoming.get(receiver, 0) + 1
    for receiver, count in sorted(incoming.items()):
        if count > 1:
            problems.append(
                ("B2", f"receive node <{receiver.strand},{receiver.index}> has {count} senders")
            )

    if toposort(sorted(in_height), causal_edges(bundle)) is None:
        problems.append(("B4", "causal graph has a cycle"))

    conflicts = space.conflicts
    if conflicts is not None:
        active = set(bundle.active_strands())
        for a, b in sorted(conflicts):
            if a in active and b in active:
                problems.append(("B5", f"conflicting strands both present: ({a}, {b})"))

    return BundleReport(tuple(problems), checked_b5=conflicts is not None)


def bundle_height(space: StrandSpace, bundle: Bundle) -> int:
    """Edge count of the longest causal path through the bundle: the
    longest path to each node, over the nodes in reverse topological
    order."""
    report = validate_bundle(space, bundle)
    if not report.ok:
        raise InputError(f"invalid bundle: {report.problems[0][1]}")
    nodes = sorted(bundle.nodes())
    edges = causal_edges(bundle)
    out: dict[Node, list[Node]] = {n: [] for n in nodes}
    for a, b in edges:
        out[a].append(b)
    longest = {n: 0 for n in nodes}
    for n in reversed(toposort(nodes, edges)):
        for m in out[n]:
            longest[n] = max(longest[n], longest[m] + 1)
    return max(longest.values(), default=0)


def brute_force_bundles(space, max_nodes):
    """Reference bundle enumeration: every height vector within max_nodes
    and every set of same-message send->receive edges between its nodes,
    kept when `validate_bundle` accepts it (B5 against the space's
    conflicts), in `Bundle.sort_key` order."""
    found = []
    for heights in product(*(range(len(s) + 1) for s in space.strands)):
        if sum(heights) > max_nodes:
            continue
        base = Bundle.of({s.id: h for s, h in zip(space.strands, heights)})
        nodes = list(base.nodes())
        pairs = [
            (n1, n2)
            for n1 in nodes
            for n2 in nodes
            if term_of(space, n1).positive
            and not term_of(space, n2).positive
            and term_of(space, n1).message == term_of(space, n2).message
        ]
        for keep in product((False, True), repeat=len(pairs)):
            bundle = Bundle(base.heights, frozenset(e for e, k in zip(pairs, keep) if k))
            if validate_bundle(space, bundle).ok:
                found.append(bundle)
    return tuple(sorted(found, key=Bundle.sort_key))


def reference_message_equivalent(space, g, bundle) -> bool:
    """Reference message equivalence, strand by strand: each strand's
    height equals its history's length and each event is the term at its
    node.  Assumes an identity-assigned space and a state over its strands."""
    for sid, history in g.items():
        if bundle.height_map.get(sid, 0) != len(history):
            return False
        for i, event in enumerate(history, start=1):
            if event_to_term(event) != term_of(space, Node(sid, i)):
                return False
    return True


def hist(chain: ChainPrefix, agent: str, m: int) -> History:
    """The history agent has accumulated after the first m steps."""
    if agent not in chain.agents:
        raise InputError(f"unknown agent: {agent!r}")
    steps = len(chain.witnesses)
    if not 0 <= m <= steps:
        raise InputError(f"step index {m} out of range 0..{steps}")
    events: list[Event] = []
    for witness in chain.witnesses[:m]:
        events += [event for a, _, event in witness.extensions if a == agent]
    return tuple(events)


def run_from_chain(chain: ChainPrefix) -> RunPrefix:
    """The run prefix reading off each agent's events along the chain."""
    states = [GlobalState.empty(chain.agents)]
    for witness in chain.witnesses:
        states.append(states[-1].extend({a: e for a, _, e in witness.extensions}))
    return RunPrefix.of(states)


def pairwise_step_graph(space, max_nodes):
    """Reference step relation: `check_step` on every ordered pair of
    enumerated bundles, successors kept in enumeration order."""
    bundles = enumerate_bundles(space, max_nodes)
    successors = {}
    for b1 in bundles:
        succ = []
        for b2 in bundles:
            witness = check_step(space, b1, b2)
            if witness is not None:
                succ.append((b2, witness))
        successors[b1] = tuple(succ)
    return successors


def bfs_distances(graph) -> dict:
    """Reference distances: a breadth-first search over the graph's
    successors from the empty bundle, fewest steps per bundle reached."""
    dist = {EMPTY_BUNDLE: 0}
    queue = deque([EMPTY_BUNDLE])
    while queue:
        b = queue.popleft()
        for b2, _ in graph.successors[b]:
            if b2 not in dist:
                dist[b2] = dist[b] + 1
                queue.append(b2)
    return dist


def all_histories(messages: Iterable[str], bound: int) -> Iterable[History]:
    """Every event sequence over the message alphabet, up to a length."""
    alphabet = [e for u in sorted(set(messages)) for e in (sent(u), recv(u))]
    for n in range(bound + 1):
        for combo in product(alphabet, repeat=n):
            yield combo


def is_monotone_realization(
    candidate: Iterable[Event],
    p: TableSpec,
    bound: int,
    messages: Iterable[str] | None = None,
) -> bool:
    """Whether a table protocol behaves like the candidate monotone one
    on every history up to the length bound."""
    if bound < 0:
        raise InputError("bound must be non-negative")
    candidate = MonotoneSpec(tuple(candidate))
    if messages is None:
        messages = spec_messages(candidate) | spec_messages(p)
    return all(
        eval_protocol(p, h) == eval_protocol(candidate, h)
        for h in all_histories(messages, bound)
    )


def brute_force_runs(agents, universe, horizon, admissible):
    """Reference run enumeration, slow and independent of `explore`.

    Every run is extended by every per-agent stutter or one-event append
    over the whole universe, and kept when ``admissible(g, g2)`` accepts
    its last round and the run passes MP1-MP3.  Both filters are closed
    under prefixes, so pruning level by level drops no complete run.
    """
    events = [e for u in sorted(universe) for e in (sent(u), recv(u))]
    runs = [RunPrefix.of([GlobalState.empty(agents)])]
    for _ in range(horizon):
        extended = []
        for run in runs:
            g = run.final()
            for combo in product([None, *events], repeat=len(g.agents)):
                g2 = g.extend({a: e for a, e in zip(g.agents, combo) if e is not None})
                longer = RunPrefix(run.states + (g2,))
                if admissible(g, g2) and check_mp(universe, agents, longer).ok:
                    extended.append(longer)
        runs = extended
    return frozenset(runs)


def reference_parse_chains(text: str) -> ChainsDocument:
    """Reference chains parse: a fresh `Bundle` and `StepWitness` for
    every occurrence of a bundle or step in every chain."""
    body = json.loads(text)
    agents = tuple(sorted(body["agents"]))
    chains = []
    for raw in body["chains"]:
        bundles = tuple(
            Bundle.of(b["heights"], [(Node(*n1), Node(*n2)) for n1, n2 in b["edges"]])
            for b in raw["bundles"]
        )
        witnesses = tuple(
            StepWitness(
                f=tuple(sorted(w["f"].items())),
                extensions=tuple(
                    sorted(
                        (e["agent"], e["strand"], parse_event(e["event"]))
                        for e in w["extensions"]
                    )
                ),
            )
            for w in raw["steps"]
        )
        chains.append(ChainPrefix(agents=agents, bundles=bundles, witnesses=witnesses))
    return ChainsDocument(agents=agents, chains=tuple(chains))


def reference_parse_runs(text: str) -> frozenset[RunPrefix]:
    """Reference runs parse: a fresh `GlobalState` and `Event` for every
    state of every run, collected in a frozenset."""
    body = json.loads(text)
    agents = tuple(sorted(body["agents"]))
    runs = set()
    for raw_run in body["runs"]:
        assert len(raw_run) == body["horizon"] + 1
        states = []
        for raw in raw_run:
            assert set(raw) == set(agents)
            states.append(
                GlobalState.of({a: tuple(parse_event(e) for e in raw[a]) for a in agents})
            )
        runs.add(RunPrefix.of(states))
    return frozenset(runs)


def reference_dump(doc) -> str:
    """Reference dump of a run set or chains document: the whole body built
    run by run or chain by chain, then one `json.dumps`."""
    if isinstance(doc, RunAutomaton):
        body = {
            "kind": "runs",
            "agents": list(doc.agents),
            "horizon": doc.horizon,
            "runs": [
                [{a: [str(e) for e in h] for a, h in g.items()} for g in run.states]
                for run in sorted(doc)
            ],
        }
    else:
        body = {
            "kind": "chains",
            "agents": list(doc.agents),
            "chains": [
                {
                    "bundles": [
                        {
                            "heights": dict(b.heights),
                            "edges": [
                                [[n1.strand, n1.index], [n2.strand, n2.index]]
                                for n1, n2 in sorted(b.edges)
                            ],
                        }
                        for b in chain.bundles
                    ],
                    "steps": [
                        {
                            "f": dict(w.f),
                            "extensions": [
                                {"agent": agent, "strand": strand, "event": str(event)}
                                for agent, strand, event in w.extensions
                            ],
                        }
                        for w in chain.witnesses
                    ],
                }
                for chain in doc.chains
            ],
        }
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def reference_validate_runs(text: str) -> str:
    """Reference `validate` stdout for a runs document: `check_mp` on
    every run in sorted order, reporting the first run that fails."""
    agents = tuple(sorted(json.loads(text)["agents"]))
    runs = reference_parse_runs(text)
    universe = {e.message for r in runs for g in r.states for _, h in g.items() for e in h}
    for run in sorted(runs):
        report = check_mp(universe, agents, run)
        problems = [
            f"{label}: {problem}"
            for label, problem in (("MP1", report.mp1), ("MP2", report.mp2), ("MP3", report.mp3))
            if problem
        ]
        if problems:
            return "".join(p + "\n" for p in problems)
    return "ok\n"
