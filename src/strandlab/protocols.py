"""Protocols over histories and the round semantics that runs them.

A protocol maps each local history to a nonempty set of actions (send a
message, or do nothing).  Three spec forms are supported:

  * monotone — a fixed event sequence e_1, ..., e_k: find the largest i
    such that e_1, ..., e_i have all occurred (counted with multiplicity)
    and send the next listed message if position i+1 is a send, else do
    nothing;
  * union — the pointwise union of member protocols;
  * table — explicit history-to-actions entries, with a default for
    histories not listed.

The round semantics is nondeterministic: each agent picks an action from
its protocol and then either stutters, records its send, or records a
receive that the round's cumulative send counts can justify.  Receives
are available in every round regardless of the chosen action — delivery
is the environment's move, not the agent's.  A round (`tau_step`) is
`systems.joint_round` over those per-agent options, and `generate_runs`
is `systems.explore` over rounds.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import product
from typing import Iterable, Mapping, NamedTuple

from .budget import StateBudget
from .core import Event, GlobalState, History, recv, sent, token_problems
from .errors import IllFormedError, InputError
from .systems import RunAutomaton, explore, joint_round


class Action(namedtuple("Action", "kind message")):
    """Send a specific message, or do nothing."""

    __slots__ = ()

    def __new__(cls, kind: str, message: str | None = None):  # kind: "send" or "no-op"
        if kind == "send":
            if not message:
                raise InputError("a send action carries exactly one message")
        elif kind == "no-op":
            if message is not None:
                raise InputError("no-op carries no message")
        else:
            raise InputError(f"unknown action kind: {kind!r}")
        return tuple.__new__(cls, (kind, message))

    def __str__(self) -> str:
        return "no-op" if self.kind == "no-op" else f"send {self.message}"


NOOP = Action("no-op")


def send(message: str) -> Action:
    return Action("send", message)


class MonotoneSpec(NamedTuple):
    """A protocol fully described by one fixed event sequence."""

    events: tuple[Event, ...]


class UnionSpec(namedtuple("UnionSpec", "members")):
    """The pointwise union of member protocols."""

    __slots__ = ()

    def __new__(cls, members: tuple):
        if not members:
            raise InputError("a union protocol needs at least one member")
        return tuple.__new__(cls, (members,))


class TableSpec(namedtuple("TableSpec", "entries default")):
    """Explicit history-to-actions entries with a default action set."""

    __slots__ = ()

    def __new__(
        cls,
        entries: tuple[tuple[History, frozenset[Action]], ...],
        default: frozenset[Action] = frozenset({NOOP}),
    ):
        if not default:
            raise InputError("the default action set must be nonempty")
        for history, actions in entries:
            if not actions:
                raise InputError(
                    f"empty action set for history {[str(e) for e in history]}"
                )
        return tuple.__new__(cls, (entries, default))

    @classmethod
    def of(
        cls,
        entries: Mapping[History, Iterable[Action]],
        default: Iterable[Action] = (NOOP,),
    ) -> "TableSpec":
        return cls(
            entries=tuple(
                sorted((tuple(h), frozenset(acts)) for h, acts in entries.items())
            ),
            default=frozenset(default),
        )


ProtocolSpec = MonotoneSpec | UnionSpec | TableSpec


def _monotone_progress(events: tuple[Event, ...], h: History) -> int:
    """Largest i such that e_1, ..., e_i all occur in h, with multiplicity."""
    have = Counter(h)
    need: Counter = Counter()
    best = 0
    for i, e in enumerate(events, start=1):
        need[e] += 1
        if all(have[k] >= n for k, n in need.items()):
            best = i
    return best


def eval_protocol(p: ProtocolSpec, h: History) -> frozenset[Action]:
    """The nonempty set of actions the protocol allows at a history."""
    h = tuple(h)
    if isinstance(p, MonotoneSpec):
        i = _monotone_progress(p.events, h)
        if i < len(p.events) and p.events[i].kind == "sent":
            return frozenset({send(p.events[i].message)})
        return frozenset({NOOP})
    if isinstance(p, UnionSpec):
        out: set[Action] = set()
        for member in p.members:
            out |= eval_protocol(member, h)
        return frozenset(out)
    if isinstance(p, TableSpec):
        for history, actions in p.entries:
            if history == h:
                return actions
        return p.default
    raise InputError(f"unknown protocol spec: {type(p).__name__}")


def spec_messages(p: ProtocolSpec) -> set[str]:
    """The messages a spec uses: in monotone events, table histories,
    actions and defaults, and in union members at any depth."""
    used: set[str] = set()
    todo = [p]
    while todo:
        p = todo.pop()
        if isinstance(p, UnionSpec):
            todo.extend(p.members)
        elif isinstance(p, MonotoneSpec):
            used.update(e.message for e in p.events)
        else:
            # the default as one more row, with no history
            for history, actions in p.entries + (((), p.default),):
                used.update(e.message for e in history)
                used.update(a.message for a in actions if a.kind == "send")
    return used


class JointProtocol(namedtuple("JointProtocol", "per_agent messages")):
    """One protocol per agent, over an explicit message universe that
    declares every message the specs use; agent and message names are tokens."""

    __slots__ = ()

    def __new__(cls, per_agent: tuple[tuple[str, ProtocolSpec], ...], messages: tuple[str, ...]):
        problems = token_problems("agent", [a for a, _ in per_agent])
        problems += token_problems("message", messages)
        used = set().union(*(spec_messages(p) for _, p in per_agent))
        problems += [f"undeclared message: {m}" for m in sorted(used - set(messages))]
        if problems:
            raise IllFormedError(problems)
        return tuple.__new__(cls, (per_agent, messages))

    @classmethod
    def of(
        cls, mapping: Mapping[str, ProtocolSpec], messages: Iterable[str]
    ) -> "JointProtocol":
        return cls(
            per_agent=tuple(sorted(mapping.items())),
            messages=tuple(sorted(set(messages))),
        )

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.per_agent)

    def spec(self, agent: str) -> ProtocolSpec:
        for a, p in self.per_agent:
            if a == agent:
                return p
        raise InputError(f"unknown agent: {agent!r}")


def tau_step(jp: JointProtocol, g: GlobalState) -> frozenset[GlobalState]:
    """All global states one protocol round can produce.

    Per agent: keep the history, append sent(u) when the chosen action is
    send(u), or append recv(u); the joint outcome stands only if its
    receives remain justified by its sends (same-round sends count).
    """
    options = {}
    for a, h in g.items():
        actions = sorted(eval_protocol(jp.spec(a), h))
        options[a] = [sent(x.message) for x in actions if x.kind == "send"]
        options[a] += [recv(u) for u in jp.messages]
    return frozenset(joint_round(g, options))


def generate_runs(
    jp: JointProtocol,
    horizon: int,
    budget: StateBudget | None = None,
) -> RunAutomaton:
    """All run prefixes the joint protocol can generate from empty start."""
    return explore(
        [(GlobalState.empty(jp.agents), None)],
        lambda g, _: [(g2, None) for g2 in tau_step(jp, g)],
        jp.agents,
        horizon,
        budget,
    )


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
