"""Builders that realize run-based systems as strand spaces.

Two constructions:

  * from a history set: an extended space, with one strand per agent
    and nonempty admissible history, and same-agent strands pairwise
    conflicting so that a bundle commits each agent to a single history.
    The conflict relation is a field of the space, so its pairs are
    checked with the space's own problems when it is built, here as in
    a parsed document;
  * from a joint protocol whose every per-agent spec is monotone (or a
    union of monotone specs): one send-side strand per monotone
    component carrying that component's full event sequence, plus one
    single-node receive strand per agent and message.

Strand ids are ``agent__sent-u_recv-v``, ``agent__seq1`` and
``agent__recv-u``, with each ``_`` of a name written ``_~`` (`_escape`).

For the protocol construction, earlier stages of a component are covered
by bundles that cut the full strand short, so no per-prefix strands are
materialized.  Materializing every prefix as its own strand would let
one bundle pick up two prefixes of the same component and replay a send
the protocol performs only once, producing runs the protocol cannot.
"""

from __future__ import annotations

from itertools import combinations

from .core import History, Strand, StrandSpace, event_to_term, negative
from .errors import InputError
from .protocols import JointProtocol, MonotoneSpec, ProtocolSpec, UnionSpec
from .systems import HistorySet


def _escape(name: str) -> str:
    """``name`` with each ``_`` written ``_~``.  In an escaped name every
    ``_`` is followed by ``~``, and in the separators of an id (``__``
    and the ``_`` before an event) none is, so an id splits back into its
    names one way only.  A name without ``_`` is its own escape."""
    return name.replace("_", "_~")


def _history_slug(h: History) -> str:
    return "_".join(f"{e.kind}-{_escape(e.message)}" for e in h)


def extended_space_from_system(hs: HistorySet) -> StrandSpace:
    """One strand per nonempty admissible history, same-agent strands
    pairwise conflicting."""
    strands: list[Strand] = []
    assignment: dict[str, str] = {}
    pairs: list[tuple[str, str]] = []
    for agent in hs.agents:
        ids = []
        for h in hs.histories(agent):
            if not h:
                continue
            sid = f"{_escape(agent)}__{_history_slug(h)}"
            strands.append(Strand(sid, tuple(event_to_term(e) for e in h)))
            assignment[sid] = agent
            ids.append(sid)
        pairs.extend(combinations(sorted(ids), 2))
    return StrandSpace.of(strands, hs.agents, assignment, conflicts=pairs)


def monotone_components(p: ProtocolSpec) -> list[MonotoneSpec]:
    """The monotone components of a spec; input error if it has others."""
    if isinstance(p, MonotoneSpec):
        return [p]
    if isinstance(p, UnionSpec):
        out: list[MonotoneSpec] = []
        for member in p.members:
            out.extend(monotone_components(member))
        return out
    raise InputError(
        f"protocol spec of kind {type(p).__name__} is not a union of monotone specs"
    )


def space_from_monotone(jp: JointProtocol) -> StrandSpace:
    """The strand space whose chains replay a monotone joint protocol."""
    strands: list[Strand] = []
    assignment: dict[str, str] = {}
    for agent in jp.agents:
        for i, component in enumerate(monotone_components(jp.spec(agent)), start=1):
            if not component.events:
                continue
            sid = f"{_escape(agent)}__seq{i}"
            strands.append(
                Strand(sid, tuple(event_to_term(e) for e in component.events))
            )
            assignment[sid] = agent
        for u in sorted(jp.messages):
            sid = f"{_escape(agent)}__recv-{_escape(u)}"
            strands.append(Strand(sid, (negative(u),)))
            assignment[sid] = agent
    return StrandSpace.of(strands, jp.agents, assignment)
