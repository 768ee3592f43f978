"""Shared value model: messages, signed terms, events, strands, conflict
relations, spaces, histories and global states.

All values are immutable; nothing here has behavior beyond construction,
equality and rendering.  Messages are opaque atoms: the internal
structure of a message is irrelevant to the execution models, so a
message is just its name.

A value is well formed once built: its constructor raises on ill-formed
input, `StrandSpace` with an `IllFormedError` that lists every problem,
those of its conflict pairs (unknown strands, cross-agent pairs) after
its own.  So no enumerator or check meets an ill-formed relation.

Most value types of the package are tuples: a `NamedTuple` record, or a
`namedtuple` subclass whose ``__new__`` validates.  Their fields are
read-only descriptors and they have no instance dict, so assigning any
attribute raises `AttributeError`.  `StrandSpace` keeps lookup maps
beside its fields; it is the one ``__slots__`` class, whose
``__setattr__`` and ``__delattr__`` raise `AttributeError`.  Every
value's hash is the hash of its field tuple and its repr is
``Cls(field=value, ...)``.

Conventions:
  * strand positions are 1-based;
  * a signed term ``+u`` is the sending of message ``u``, ``-u`` its
    reception;
  * the corresponding run-level events are ``sent(u)`` and ``recv(u)``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import IllFormedError, InputError

POSITIVE = "+"
NEGATIVE = "-"
SENT = "sent"
RECV = "recv"


def token_problems(what: str, values: Iterable[str]) -> list[str]:
    """A problem for each value that is not a nonempty token without whitespace."""
    return [
        f"{what} must be a nonempty token without whitespace: {v!r}"
        for v in values
        if not v or any(c.isspace() for c in v)
    ]


def _check_token(value: str, what: str) -> None:
    for problem in token_problems(what, [value]):
        raise InputError(problem)


class SignedTerm(namedtuple("SignedTerm", "sign message")):
    """A send (+u) or receive (-u) of a message."""

    __slots__ = ()

    def __new__(cls, sign: str, message: str):
        if sign not in (POSITIVE, NEGATIVE):
            raise InputError(f"sign must be '+' or '-', got {sign!r}")
        _check_token(message, "message")
        return tuple.__new__(cls, (sign, message))

    @property
    def positive(self) -> bool:
        return self.sign == POSITIVE

    def __str__(self) -> str:
        return f"{self.sign}{self.message}"


def positive(message: str) -> SignedTerm:
    return SignedTerm(POSITIVE, message)


def negative(message: str) -> SignedTerm:
    return SignedTerm(NEGATIVE, message)


class Event(namedtuple("Event", "kind message")):
    """A local event: message sent or message received."""

    __slots__ = ()

    def __new__(cls, kind: str, message: str):
        if kind not in (SENT, RECV):
            raise InputError(f"event kind must be 'sent' or 'recv', got {kind!r}")
        _check_token(message, "message")
        return tuple.__new__(cls, (kind, message))

    def __str__(self) -> str:
        return f"{self.kind} {self.message}"


def sent(message: str) -> Event:
    return Event(SENT, message)


def recv(message: str) -> Event:
    return Event(RECV, message)


# ``sent(u) <-> +u`` and ``recv(u) <-> -u``; applying the map twice is the
# identity on both carriers.

def event_to_term(event: Event) -> SignedTerm:
    return SignedTerm(POSITIVE if event.kind == SENT else NEGATIVE, event.message)


def term_to_event(term: SignedTerm) -> Event:
    return Event(SENT if term.positive else RECV, term.message)


def event_term_bijection(x: Event | SignedTerm) -> SignedTerm | Event:
    """Map an event to its signed term, or a signed term to its event."""
    if isinstance(x, Event):
        return event_to_term(x)
    if isinstance(x, SignedTerm):
        return term_to_event(x)
    raise InputError(f"expected Event or SignedTerm, got {type(x).__name__}")


History = tuple[Event, ...]


class Strand(namedtuple("Strand", "id trace")):
    """A named, nonempty trace of signed terms.  Its ``len`` is the trace
    length."""

    __slots__ = ()

    def __new__(cls, id: str, trace: Iterable[SignedTerm]):
        _check_token(id, "strand id")
        return tuple.__new__(cls, (id, tuple(trace)))

    def __len__(self) -> int:
        return len(self.trace)


class Node(NamedTuple):
    """A position within a strand's trace (1-based)."""

    strand: str
    index: int


_set = object.__setattr__


def _frozen(self, name, value=None):
    raise AttributeError(f"field {name!r} is read-only")


class ConflictRelation(frozenset):
    """A symmetric set of same-agent strand pairs that may not co-occur.

    Stored as a frozenset of sorted 2-tuples of strand ids.
    """

    def __new__(cls, pairs: Iterable[tuple[str, str]] = ()):
        normalized = set()
        for a, b in pairs:
            if a == b:
                raise InputError(f"conflict pair relates strand {a!r} to itself")
            normalized.add((min(a, b), max(a, b)))
        return super().__new__(cls, normalized)


class StrandSpace:
    """A finite set of strands together with an agent assignment and, for
    an extended space, a conflict relation.

    A plain (agent-free) space is represented with the identity
    assignment: each strand is its own agent.  Ids are distinct, traces
    nonempty, and the assignment maps exactly the strands to declared
    agents.  ``conflicts`` is None for a space without a conflict
    relation, which is not the same space as one with an empty relation;
    each pair names two strands of the assignment with the same agent.
    Equality, hash and repr read the four fields, not the lookup maps
    built from them.
    """

    __slots__ = (
        "strands", "agents", "assignment", "conflicts", "_by_id", "_agent_by_id", "_by_agent"
    )

    def __init__(
        self,
        strands: tuple[Strand, ...],
        agents: tuple[str, ...],
        assignment: tuple[tuple[str, str], ...],  # (strand id, agent), sorted
        conflicts: ConflictRelation | None = None,
    ):
        amap = dict(assignment)
        problems: list[str] = []
        seen: set[str] = set()
        for s in strands:
            if s.id in seen:
                problems.append(f"duplicate strand id: {s.id}")
            seen.add(s.id)
            if not s.trace:
                problems.append(f"empty trace on strand {s.id}")
        for s in strands:
            if s.id not in amap:
                problems.append(f"unassigned strand: {s.id}")
            elif amap[s.id] not in agents:
                problems.append(f"strand {s.id} assigned to undeclared agent {amap[s.id]}")
        problems += [f"assignment references unknown strand: {i}" for i in amap if i not in seen]
        for a, b in sorted(conflicts or ()):
            unknown = next((sid for sid in (a, b) if sid not in amap), None)
            if unknown is not None:
                problems.append(f"conflict pair references unknown strand {unknown!r}")
            elif amap[a] != amap[b]:
                problems.append(f"conflict pair spans agents: ({a}, {b})")
        if problems:
            raise IllFormedError(problems)
        _set(self, "strands", strands)
        _set(self, "agents", agents)
        _set(self, "assignment", assignment)
        _set(self, "conflicts", conflicts)
        by_agent: dict[str, list[Strand]] = {}
        for s in strands:
            by_agent.setdefault(amap[s.id], []).append(s)
        _set(self, "_by_id", {s.id: s for s in strands})
        _set(self, "_agent_by_id", amap)
        _set(self, "_by_agent", {a: tuple(ss) for a, ss in by_agent.items()})

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is not StrandSpace:
            return NotImplemented
        return (self.strands, self.agents, self.assignment, self.conflicts) == (
            other.strands, other.agents, other.assignment, other.conflicts
        )

    def __hash__(self) -> int:
        return hash((self.strands, self.agents, self.assignment, self.conflicts))

    def __repr__(self) -> str:
        return (
            f"StrandSpace(strands={self.strands!r}, agents={self.agents!r}, "
            f"assignment={self.assignment!r}, conflicts={self.conflicts!r})"
        )

    @classmethod
    def of(
        cls,
        strands: Iterable[Strand],
        agents: Iterable[str],
        assignment: Mapping[str, str],
        conflicts: Iterable[tuple[str, str]] | None = None,
    ) -> "StrandSpace":
        return cls(
            strands=tuple(sorted(strands, key=lambda s: s.id)),
            agents=tuple(sorted(set(agents))),
            assignment=tuple(sorted(assignment.items())),
            conflicts=None if conflicts is None else ConflictRelation(conflicts),
        )

    @classmethod
    def identity(cls, strands: Iterable[Strand]) -> "StrandSpace":
        """A plain space: every strand executed by its own agent."""
        strands = list(strands)
        return cls.of(strands, (s.id for s in strands), {s.id: s.id for s in strands})

    def with_identity_assignment(self) -> "StrandSpace":
        """The same strands, each its own agent, without conflicts."""
        return StrandSpace.identity(self.strands)

    def without_conflicts(self) -> "StrandSpace":
        """The plain space of the same strands and assignment."""
        if self.conflicts is None:
            return self
        return StrandSpace(self.strands, self.agents, self.assignment)

    @property
    def assignment_map(self) -> dict[str, str]:
        return dict(self.assignment)

    def is_identity_assigned(self) -> bool:
        return all(sid == agent for sid, agent in self.assignment) and set(
            self.agents
        ) == {s.id for s in self.strands}

    def strand(self, sid: str) -> Strand:
        try:
            return self._by_id[sid]
        except KeyError:
            raise InputError(f"unknown strand id: {sid!r}") from None

    def agent_of(self, sid: str) -> str:
        self.strand(sid)
        return self._agent_by_id[sid]

    def strands_of(self, agent: str) -> tuple[Strand, ...]:
        return self._by_agent.get(agent, ())

    def messages(self) -> frozenset[str]:
        return frozenset(t.message for s in self.strands for t in s.trace)

    def nodes(self) -> Iterator[Node]:
        for s in self.strands:
            for i in range(1, len(s) + 1):
                yield Node(s.id, i)

    def node_count(self) -> int:
        return sum(len(s) for s in self.strands)


def term_of(space: StrandSpace, node: Node) -> SignedTerm:
    """The signed term at a node of the space."""
    strand = space.strand(node.strand)
    if not 1 <= node.index <= len(strand):
        raise InputError(
            f"node index {node.index} out of range for strand {node.strand!r} "
            f"(trace length {len(strand)})"
        )
    return strand.trace[node.index - 1]


class GlobalState(NamedTuple):
    """A tuple of per-agent local histories."""

    locals: tuple[tuple[str, History], ...]  # sorted by agent

    @classmethod
    def of(cls, mapping: Mapping[str, Iterable[Event]]) -> "GlobalState":
        return cls(tuple(sorted((a, tuple(h)) for a, h in mapping.items())))

    @classmethod
    def empty(cls, agents: Iterable[str]) -> "GlobalState":
        return cls.of({a: () for a in agents})

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.locals)

    def history(self, agent: str) -> History:
        for a, h in self.locals:
            if a == agent:
                return h
        raise InputError(f"unknown agent: {agent!r}")

    def items(self) -> tuple[tuple[str, History], ...]:
        return self.locals

    def extend(self, events: Mapping[str, Event]) -> "GlobalState":
        """Append one event to each listed agent's history."""
        return GlobalState(
            tuple(
                (a, h + (events[a],) if a in events else h) for a, h in self.locals
            )
        )
