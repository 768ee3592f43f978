"""Bundles: causally consistent finite snapshots of strand-space executions.

A bundle is encoded as per-strand prefix heights plus an explicit matching
of send nodes to receive nodes.  Encoding prefixes by heights makes
downward closure along the strand-successor relation structural, so the
axiom checks that remain are:

  * structural edge sanity (terms match, nodes in height, each send feeds
    at most one receive — the matching is injective);
  * B2: every in-height receive node has exactly one incoming edge;
  * B4: the causal graph (communication edges plus strand successors) is
    acyclic;
  * B5 (extended spaces only): no two conflicting strands both appear.

B1 (finiteness) and B3 (downward closure) hold by construction.  The
conflict relation is the space's own (`StrandSpace.conflicts`), and its
pairs are checked when the space is built, as the space's own problems,
so B5 is only about the bundle: which strands are present.

`agent_events` is what a bundle shows each agent: the events of the
agent's strands up to the bundle's heights.  Message equivalence with a
global state (identity assignment), theorem 2 and history preservation
all compare these images.

`KeyedSpace` packs a bundle into one integer key: `encode` builds a key
from heights and edge pairs, `decode` splits it back and `bundle` turns
it into a `Bundle`.  `enumerate_bundles` and the step search
(`chains.step_graph`) both build and compare keys.  Strands are
numbered in id order and nodes strand by strand, so strand i's nodes
are ``offset[i]``, ``offset[i] + 1``, ... A key is ``code + mask * size``:

  * ``code`` is the mixed-radix number whose digit for strand i, of radix
    len(strand i) + 1 and place value ``radix[i]``, is that strand's
    height; ``size`` is the number of codes;
  * ``mask`` has one bit per same-message (send, receive) node pair of the
    space, bit b for ``pairs[b]``; ``pair_key[a, b]`` is that bit times
    ``size``, so an edge is added to a key by adding its pair key.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable
from typing import Iterable, Iterator, Mapping, NamedTuple

from .budget import StateBudget, ensure
from .core import (  # ConflictRelation is re-exported
    ConflictRelation, GlobalState, History, Node, StrandSpace, term_of, term_to_event,
)
from .errors import InputError

CommEdge = tuple[Node, Node]


class Bundle(NamedTuple):
    """Per-strand prefix heights plus a send-to-receive edge matching.

    ``heights`` stores only nonzero entries, sorted by strand id; a strand
    absent from it has height 0 (no node present).
    """

    heights: tuple[tuple[str, int], ...]
    edges: frozenset[CommEdge]

    @classmethod
    def of(
        cls, heights: Mapping[str, int], edges: Iterable[CommEdge] = ()
    ) -> "Bundle":
        return cls(
            heights=tuple(sorted((s, h) for s, h in heights.items() if h > 0)),
            edges=frozenset(edges),
        )

    @property
    def height_map(self) -> dict[str, int]:
        return dict(self.heights)

    def height(self, sid: str) -> int:
        return self.height_map.get(sid, 0)

    def node_count(self) -> int:
        return sum(h for _, h in self.heights)

    def active_strands(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.heights)

    def is_empty(self) -> bool:
        return not self.heights

    def nodes(self) -> Iterator[Node]:
        for s, h in self.heights:
            for i in range(1, h + 1):
                yield Node(s, i)

    def sort_key(self):
        return (self.heights, tuple(sorted(self.edges)))


EMPTY_BUNDLE = Bundle.of({})


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


def _successor_edges(bundle: Bundle) -> Iterator[CommEdge]:
    for s, h in bundle.heights:
        for i in range(1, h):
            yield (Node(s, i), Node(s, i + 1))


def causal_edges(bundle: Bundle) -> list[CommEdge]:
    """All edges of the causal graph: communication plus strand successors."""
    return sorted(bundle.edges) + list(_successor_edges(bundle))


def _toposort(nodes: list[Hashable], edges: list[tuple[Hashable, Hashable]]) -> list[Hashable] | None:
    """Kahn's algorithm over `Node`s or `KeyedSpace` node numbers; None
    when the graph has a cycle."""
    indeg = {n: 0 for n in nodes}
    out: dict[Hashable, list[Hashable]] = {n: [] for n in nodes}
    for a, b in edges:
        out[a].append(b)
        indeg[b] += 1
    frontier = [n for n in nodes if indeg[n] == 0]
    order: list[Hashable] = []
    while frontier:
        n = frontier.pop()
        order.append(n)
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                frontier.append(m)
    return order if len(order) == len(nodes) else None


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

    if _toposort(sorted(in_height), causal_edges(bundle)) is None:
        problems.append(("B4", "causal graph has a cycle"))

    conflicts = space.conflicts
    if conflicts is not None:
        active = set(bundle.active_strands())
        for a, b in sorted(conflicts):
            if a in active and b in active:
                problems.append(("B5", f"conflicting strands both present: ({a}, {b})"))

    return BundleReport(tuple(problems), checked_b5=conflicts is not None)


def bundle_height(space: StrandSpace, bundle: Bundle) -> int:
    """Edge count of the longest causal path through the bundle."""
    report = validate_bundle(space, bundle)
    if not report.ok:
        raise InputError(f"invalid bundle: {report.problems[0][1]}")
    return _longest_causal_path(bundle)


def _longest_causal_path(bundle: Bundle) -> int:
    """`bundle_height` of a bundle already known to be valid."""
    nodes = sorted(bundle.nodes())
    edges = causal_edges(bundle)
    order = _toposort(nodes, edges)
    assert order is not None
    out: dict[Node, list[Node]] = {n: [] for n in nodes}
    for a, b in edges:
        out[a].append(b)
    longest = {n: 0 for n in nodes}
    for n in reversed(order):
        for m in out[n]:
            longest[n] = max(longest[n], longest[m] + 1)
    return max(longest.values(), default=0)


def strand_height(space: StrandSpace, bundle: Bundle, sid: str) -> int:
    """The bundle's prefix height for one strand (0 when absent)."""
    space.strand(sid)
    return bundle.height(sid)


class KeyedSpace:
    """A space's strands, nodes and edge pairs as numbers, its bundles as
    integer keys (see the module docstring), its conflicts as bitmasks."""

    def __init__(self, space: StrandSpace):
        self.strands = sorted(space.strands, key=lambda s: s.id)
        self.index = {s.id: i for i, s in enumerate(self.strands)}
        self.ids = [s.id for s in self.strands]
        self.lengths = [len(s) for s in self.strands]
        self.radix, self.size = [], 1
        self.offset, self.nodes, terms = [], [], []
        for s in self.strands:
            self.radix.append(self.size)
            self.size *= len(s) + 1
            self.offset.append(len(self.nodes))
            self.nodes += (Node(s.id, j) for j in range(1, len(s) + 1))
            terms += s.trace
        self.strand_of = [i for i, s in enumerate(self.strands) for _ in s.trace]
        number = {m: k for k, m in enumerate(sorted({t.message for t in terms}))}
        self.message = [number[t.message] for t in terms]
        self.messages = len(number)
        self.send = [t.positive for t in terms]
        # the same-message (send, receive) node pairs; mask bit b is pairs[b]
        self.pairs: list[tuple[int, int]] = []
        self.pair_key: dict[tuple[int, int], int] = {}
        for a, ta in enumerate(terms):
            for b, tb in enumerate(terms):
                if ta.positive and not tb.positive and ta.message == tb.message:
                    self.pair_key[a, b] = self.size << len(self.pairs)
                    self.pairs.append((a, b))
        self.conflicts = [0] * len(self.strands)
        for x, y in space.conflicts or ():
            self.conflicts[self.index[x]] |= 1 << self.index[y]
            self.conflicts[self.index[y]] |= 1 << self.index[x]

    def decode(self, key: int) -> tuple[list[int], list[tuple[int, int]]]:
        """The key's heights, one per strand number, and its edge pairs."""
        mask, code = divmod(key, self.size)
        heights = []
        for length in self.lengths:
            code, h = divmod(code, length + 1)
            heights.append(h)
        return heights, [self.pairs[b] for b in _bits(mask)]

    def encode(self, heights: list[int], pairs: Iterable[tuple[int, int]]) -> int:
        """The key of the bundle with these heights and edge pairs."""
        return sum(h * r for h, r in zip(heights, self.radix)) + sum(self.pair_key[p] for p in pairs)

    def bundle(self, key: int) -> Bundle:
        heights, pairs = self.decode(key)
        nodes = self.nodes
        return Bundle(
            tuple((sid, h) for sid, h in zip(self.ids, heights) if h),
            frozenset((nodes[a], nodes[b]) for a, b in pairs),
        )


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_bundles(
    space: StrandSpace,
    max_nodes: int = 8,
    budget: StateBudget | None = None,
) -> tuple[Bundle, ...]:
    """All valid bundles with at most ``max_nodes`` nodes, in a fixed order.

    Bundles that differ only in their edge matching are distinct results.
    Each candidate, one conflict-free height vector with one injective
    matching of its receives to same-message sends, ticks the budget once.
    """
    if max_nodes < 0:
        raise InputError("max_nodes must be non-negative")
    budget = ensure(budget)
    keyed = KeyedSpace(space)
    lengths, radix, offset, conflicts = keyed.lengths, keyed.radix, keyed.offset, keyed.conflicts

    def vectors(i: int, room: int, present: int, code: int, nodes: list[int]):
        """Codes and node lists of the height vectors of strands i, ..."""
        if i == len(lengths):
            yield code, nodes
            return
        yield from vectors(i + 1, room, present, code, nodes)
        if not conflicts[i] & present:
            for h in range(1, min(lengths[i], room) + 1):
                grown = nodes + list(range(offset[i], offset[i] + h))
                yield from vectors(i + 1, room - h, present | 1 << i, code + h * radix[i], grown)

    found = []
    for code, nodes in vectors(0, max_nodes, 0, 0, []):
        sends, recvs = [[] for _ in range(keyed.messages)], [[] for _ in range(keyed.messages)]
        for n in nodes:
            (sends if keyed.send[n] else recvs)[keyed.message[n]].append(n)
        links = [(a, b) for a, b in zip(nodes, nodes[1:]) if keyed.strand_of[a] == keyed.strand_of[b]]
        receives = [r for group in recvs for r in group]
        # a message with fewer sends than receives has no matching
        matchings = [itertools.permutations(s, len(r)) for s, r in zip(sends, recvs)]
        for chosen in itertools.product(*matchings):
            budget.tick()
            pairs = list(zip(itertools.chain(*chosen), receives))
            if _toposort(nodes, links + pairs) is not None:
                found.append(code + sum(keyed.pair_key[p] for p in pairs))
    return tuple(sorted(map(keyed.bundle, found), key=Bundle.sort_key))


def agent_events(space: StrandSpace, bundle: Bundle) -> dict[str, History]:
    """What the bundle shows each agent: the events of its strands up to
    the bundle's heights, strand by strand in the space's order.

    A strand the space does not have raises an input error, as in
    `validate_bundle`.
    """
    heights = bundle.height_map
    for sid in heights:
        space.strand(sid)
    return {
        a: tuple(
            term_to_event(t) for s in space.strands_of(a) for t in s.trace[: heights.get(s.id, 0)]
        )
        for a in space.agents
    }


def message_equivalent(space: StrandSpace, g: GlobalState, bundle: Bundle) -> bool:
    """Whether a global state and a bundle agree on per-strand event prefixes.

    Only meaningful when each strand is its own agent, so that an agent's
    history and a strand's prefix describe the same locus.
    """
    if not space.is_identity_assigned():
        raise InputError("message_equivalent requires the identity agent assignment")
    if set(g.agents) != {s.id for s in space.strands}:
        raise InputError("global state agents do not match the space's strands")
    return g == GlobalState.of(agent_events(space, bundle))
