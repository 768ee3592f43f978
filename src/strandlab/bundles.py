"""Bundles: causally consistent finite snapshots of strand-space executions.

A bundle is a set of the space's nodes with communication edges, each
from a send to a receive of the same message, such that:

  B1  it is finite;
  B2  every receive node in it has exactly one incoming edge;
  B3  it is closed under strand predecessors: with a node <s,i>, i > 1,
      it holds <s,i-1>;
  B4  its causal graph (communication edges plus strand successors) is
      acyclic;
  B5  (extended spaces only) no two conflicting strands both have nodes
      in it.

A bundle is encoded as per-strand prefix heights plus the edges, each
send feeding at most one receive.  So B1 and B3 hold by construction.
The conflict relation is the space's own (`StrandSpace.conflicts`), and
its pairs are checked when the space is built, so B5 is only about which
strands are present.  The test suite's reference checks each axiom on
its own and names each failure: `tests/reference.py::validate_bundle`,
whose B4 test is a topological sort of the causal graph.

Lemma 1 compares a bundle's height, the edge count of its longest causal
path, with its chain distance.  `_longest_causal_path` finds it in one
depth-first walk over each node's two possible predecessors, with no
edge list and no sort; the tests' `bundle_height` sorts instead.

`enumerate_bundles` rests on one fact: a nonempty bundle minus a maximal
node (a strand's top node that feeds no edge), and minus its incoming
edge if it is a receive, is a bundle.  So it grows bundles from the empty
one a node at a time.  A new node has no out-edge, so no cycle can form
and no acyclicity test is needed.  Each distinct bundle ticks the budget.

`agent_events` is what a bundle shows each agent: the events of the
agent's strands up to the bundle's heights.  Theorem 2 and history
preservation compare these images.  Under the identity assignment a
global state is message-equivalent to a bundle exactly when it is the
bundle's image, ``GlobalState.of(agent_events(space, bundle))``; the
strand-by-strand definition is the tests' reference.

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

from typing import Iterable, Iterator, Mapping, NamedTuple

from .budget import StateBudget, ensure
from .core import (  # ConflictRelation is re-exported
    ConflictRelation, History, Node, StrandSpace, term_to_event,
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


def _longest_causal_path(bundle: Bundle) -> int:
    """Edge count of the longest causal path through a valid bundle.

    A node's depth is one more than its deepest predecessor's, 0 with
    none; its predecessors are the node below it on its strand and the
    send that feeds it.  One depth-first walk from each strand's top node
    sets the depths, predecessors first, without recursion."""
    feeder = {b: a for a, b in bundle.edges}
    depth: dict[Node, int] = {}
    for s, h in bundle.heights:
        stack = [Node(s, h)]
        while stack:
            node = stack[-1]
            below, send = Node(node.strand, node.index - 1), feeder.get(node)
            if node.index > 1 and below not in depth:
                stack.append(below)
            elif send is not None and send not in depth:
                stack.append(send)
            else:
                stack.pop()
                depth[node] = max(depth.get(below, -1), depth.get(send, -1)) + 1
    return max(depth.values(), default=0)


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
    Level k is the bundles of k nodes: those of level k - 1, each with the
    next node of one strand (a fresh one only if it conflicts with none
    present), a new receive fed by a send that feeds no edge yet.  So
    no cycle test is needed (see the module docstring), and each distinct
    bundle found, the empty one included, ticks the budget once.
    """
    if max_nodes < 0:
        raise InputError("max_nodes must be non-negative")
    budget = ensure(budget)
    keyed = KeyedSpace(space)
    radix, offset, pair_key = keyed.radix, keyed.offset, keyed.pair_key
    budget.tick()
    levels = [{0}]
    for _ in range(max_nodes):
        grown: set[int] = set()
        for key in levels[-1]:
            heights, pairs = keyed.decode(key)
            present = sum(1 << i for i, h in enumerate(heights) if h)
            used = {a for a, _ in pairs}
            nodes = [a for i, h in enumerate(heights) for a in range(offset[i], offset[i] + h)]
            for i, h in enumerate(heights):
                if h == keyed.lengths[i] or not h and keyed.conflicts[i] & present:
                    continue
                n, child = offset[i] + h, key + radix[i]
                new = {child} if keyed.send[n] else {
                    child + pair_key[a, n] for a in nodes if (a, n) in pair_key and a not in used}
                budget.tick(len(new - grown))
                grown |= new
        levels.append(grown)
    return tuple(sorted((keyed.bundle(k) for level in levels for k in level), key=Bundle.sort_key))


def agent_events(space: StrandSpace, bundle: Bundle) -> dict[str, History]:
    """What the bundle shows each agent: the events of its strands up to
    the bundle's heights, strand by strand in the space's order.

    A strand the space does not have raises an input error.
    """
    heights = bundle.height_map
    agent = dict(space.assignment)
    unknown = heights.keys() - agent.keys()
    if unknown:
        raise InputError(f"unknown strand id: {min(unknown)!r}")
    events: dict[str, History] = {a: () for a in space.agents}
    for s in space.strands:
        if s.id in heights:
            events[agent[s.id]] += tuple(map(term_to_event, s.trace[: heights[s.id]]))
    return events
