"""Run-based strand systems.

A run prefix is a finite sequence of global states starting from the
all-empty state in which, per round, each agent's history either stays
put or grows by one event.  Validity is governed by three conditions:

  MP1  every local state is a history over the declared message universe;
  MP2  receives are justified by sends (see below);
  MP3  histories start empty and never shrink, growing by at most one
       event per round.

MP2 has two readings.  The default ("strong") requires an injective
matching from receive occurrences to send occurrences of the same
message, each send no later than its matched receive — equivalently, at
every time and for every message, cumulatively at most as many receives
as sends have occurred.  The "literal" reading only requires that some
send of the message has occurred by the time of each receive, allowing
one send to justify many receives.  The strong reading is what makes
runs correspond to bundles, whose receive nodes each have a unique
sender; run generation uses it, and `check_mp` also offers the literal
reading for comparison.

Every run set is built by `explore`, which extends run prefixes level by
level from the all-empty state.  History sets (`generate_system`) and
protocols (`protocols.generate_runs`) feed it `joint_round`: each agent
stutters or appends one of its options, and MP2 filters the outcome.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Mapping

from .budget import StateBudget, ensure
from .core import Event, GlobalState, History
from .errors import InputError

MP2_STRONG = "strong"
MP2_LITERAL = "literal"


@dataclass(frozen=True, order=True)
class RunPrefix:
    """A sequence of global states g_0, ..., g_T."""

    states: tuple[GlobalState, ...]

    def __post_init__(self):
        if not self.states:
            raise InputError("a run prefix contains at least the initial state")

    @classmethod
    def of(cls, states: Iterable[GlobalState]) -> "RunPrefix":
        return cls(tuple(states))

    @property
    def horizon(self) -> int:
        return len(self.states) - 1

    def state(self, m: int) -> GlobalState:
        if not 0 <= m <= self.horizon:
            raise InputError(f"time {m} out of range 0..{self.horizon}")
        return self.states[m]

    def final(self) -> GlobalState:
        return self.states[-1]

    @property
    def agents(self) -> tuple[str, ...]:
        return self.states[0].agents


@dataclass(frozen=True)
class HistorySet:
    """Per-agent finite sets of admissible local histories."""

    per_agent: tuple[tuple[str, tuple[History, ...]], ...]

    @classmethod
    def of(cls, mapping: Mapping[str, Iterable[History]]) -> "HistorySet":
        return cls(
            tuple(
                sorted(
                    (a, tuple(sorted(set(map(tuple, hs))))) for a, hs in mapping.items()
                )
            )
        )

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.per_agent)

    def histories(self, agent: str) -> tuple[History, ...]:
        for a, hs in self.per_agent:
            if a == agent:
                return hs
        raise InputError(f"unknown agent: {agent!r}")

    def messages(self) -> frozenset[str]:
        return frozenset(
            e.message for _, hs in self.per_agent for h in hs for e in h
        )

    def problems(self) -> list[str]:
        """Violations of the generation preconditions, as messages.

        Every set must contain the empty history (time 0 is reachable) and
        each history's proper prefixes (every intermediate state occurs).
        Inputs are validated, not silently closed.
        """
        out = []
        for a, hs in self.per_agent:
            pool = set(hs)
            if () not in pool:
                out.append(f"history set for agent {a} lacks the empty history")
            for h in hs:
                for k in range(1, len(h)):
                    if h[:k] not in pool:
                        out.append(
                            f"history set for agent {a} lacks a prefix of {list(map(str, h))}"
                        )
                        break
        return out


def _event_counts(g: GlobalState) -> tuple[Counter, Counter]:
    """Cumulative (sent, received) message counts across all histories."""
    sends: Counter = Counter()
    recvs: Counter = Counter()
    for _, h in g.items():
        for e in h:
            (sends if e.kind == "sent" else recvs)[e.message] += 1
    return sends, recvs


def mp2_problem(g: GlobalState, mode: str) -> str | None:
    """None when the state's receives are justified; else a description."""
    sends, recvs = _event_counts(g)
    for msg, n in sorted(recvs.items()):
        have = sends.get(msg, 0)
        if mode == MP2_STRONG and n > have:
            return f"{n} receives of {msg} but only {have} sends"
        if mode == MP2_LITERAL and have == 0:
            return f"receive of {msg} with no send at all"
    return None


@dataclass(frozen=True)
class MPReport:
    """Pass/fail per message-passing condition, with first violations."""

    mp1: str | None
    mp2: str | None
    mp3: str | None

    @property
    def ok(self) -> bool:
        return self.mp1 is None and self.mp2 is None and self.mp3 is None


def check_mp(
    universe: Iterable[str],
    agents: Iterable[str],
    run: RunPrefix,
    mp2: str = MP2_STRONG,
) -> MPReport:
    """Check MP1-MP3 on a run prefix against a message universe."""
    if mp2 not in (MP2_STRONG, MP2_LITERAL):
        raise InputError(f"unknown MP2 mode: {mp2!r}")
    universe = frozenset(universe)
    agents = tuple(sorted(set(agents)))

    mp1 = None
    for m, g in enumerate(run.states):
        if g.agents != agents:
            mp1 = f"state at time {m} does not cover the agent set"
            break
        for a, h in g.items():
            bad = next((e for e in h if e.message not in universe), None)
            if bad is not None:
                mp1 = f"agent {a} at time {m}: message {bad.message} not in universe"
                break
        if mp1:
            break

    mp3 = None
    if any(h for _, h in run.states[0].items()):
        mp3 = "initial state is not empty"
    else:
        for m in range(run.horizon):
            g, g2 = run.states[m], run.states[m + 1]
            for (a, h), (_, h2) in zip(g.items(), g2.items()):
                if not (h2 == h or (len(h2) == len(h) + 1 and h2[: len(h)] == h)):
                    mp3 = f"agent {a} history shrinks or jumps at time {m + 1}"
                    break
            if mp3:
                break

    mp2_failure = None
    for m, g in enumerate(run.states):
        problem = mp2_problem(g, mp2)
        if problem is not None:
            mp2_failure = f"at time {m}: {problem}"
            break

    return MPReport(mp1=mp1, mp2=mp2_failure, mp3=mp3)


def joint_round(
    g: GlobalState, options: Mapping[str, Iterable[Event]]
) -> list[GlobalState]:
    """All global states one round can produce from g.

    Each agent stutters or appends one of its options; the joint outcome
    stands only if its receives stay justified (strong MP2), same-round
    sends included.  Distinct choices give distinct states.
    """
    choices = [[None] + [(a, e) for e in options[a]] for a in g.agents]
    out = []
    for combo in product(*choices):
        g2 = g.extend(dict(pick for pick in combo if pick))
        if mp2_problem(g2, MP2_STRONG) is None:
            out.append(g2)
    return out


def explore(
    start: tuple[GlobalState, object],
    successors: Callable[[GlobalState, object], Iterable[tuple[GlobalState, object]]],
    horizon: int,
    budget: StateBudget | None = None,
) -> frozenset[RunPrefix]:
    """All run prefixes of exactly `horizon` rounds from the pair `start`
    of initial global state and search state.  ``successors(g, search)``
    lists distinct (next state, next search state) pairs, so distinct
    prefixes stay distinct and the frontier needs no deduplication."""
    if horizon < 0:
        raise InputError("horizon must be non-negative")
    budget = ensure(budget)
    frontier = [((start[0],), start[1])]
    budget.tick()
    for _ in range(horizon):
        nxt = []
        for states, search in frontier:
            for g2, search2 in successors(states[-1], search):
                budget.tick()
                nxt.append((states + (g2,), search2))
        frontier = nxt
    return frozenset(RunPrefix(states) for states, _ in frontier)


def generate_system(
    hs: HistorySet,
    horizon: int,
    budget: StateBudget | None = None,
) -> frozenset[RunPrefix]:
    """All run prefixes of the given length whose local states stay in hs.

    Each round every agent stutters or appends an event keeping its history
    admissible, and the round's receives stay justified (strong MP2).
    """
    problems = hs.problems()
    if problems:
        raise InputError(problems[0])

    nexts: dict[str, dict[History, list[Event]]] = {}
    for a in hs.agents:
        pool = set(hs.histories(a))
        nexts[a] = {
            h: sorted(h2[-1] for h2 in pool if len(h2) == len(h) + 1 and h2[: len(h)] == h)
            for h in pool
        }

    def successors(g: GlobalState, _):
        options = {a: nexts[a][h] for a, h in g.items()}
        return [(g2, None) for g2 in joint_round(g, options)]

    return explore((GlobalState.empty(hs.agents), None), successors, horizon, budget)


def extract_histories(runs: Iterable[RunPrefix]) -> HistorySet:
    """All local histories occurring anywhere in the given runs."""
    runs = list(runs)
    if not runs:
        raise InputError("cannot extract histories from an empty run set")
    acc: dict[str, set[History]] = {}
    for run in runs:
        for g in run.states:
            for a, h in g.items():
                acc.setdefault(a, set()).add(h)
    return HistorySet.of(acc)


@dataclass(frozen=True)
class EqualityReport:
    """Outcome of a horizon-bounded run-set comparison."""

    equal: bool
    only_in_a: tuple[RunPrefix, ...]
    only_in_b: tuple[RunPrefix, ...]

    def witness(self) -> RunPrefix | None:
        if self.only_in_a:
            return self.only_in_a[0]
        if self.only_in_b:
            return self.only_in_b[0]
        return None


def systems_equal(
    runs_a: Iterable[RunPrefix], runs_b: Iterable[RunPrefix]
) -> EqualityReport:
    """Set equality of two run-prefix sets at the same horizon."""
    sa, sb = frozenset(runs_a), frozenset(runs_b)
    horizons = {r.horizon for r in sa} | {r.horizon for r in sb}
    if len(horizons) > 1:
        raise InputError(f"horizon mismatch: {sorted(horizons)}")
    return EqualityReport(
        equal=sa == sb,
        only_in_a=tuple(sorted(sa - sb)),
        only_in_b=tuple(sorted(sb - sa)),
    )


def _event_multiset(events: Iterable[Event]) -> tuple[Event, ...]:
    return tuple(sorted(events))


@dataclass(frozen=True)
class HistoryPreservingReport:
    """Witnessed violations of the two history-preservation clauses.

    Clause 1: every history reached by a run is realized, as a multiset of
    per-agent events, by some bundle.  Clause 2: every bundle's per-agent
    events are realized by some run history.
    """

    clause1_failures: tuple[tuple[str, History], ...]
    clause2_failures: tuple[tuple[str, "object", tuple[Event, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.clause1_failures and not self.clause2_failures


def check_history_preserving(
    space,
    runs: Iterable[RunPrefix],
    max_nodes: int,
    conf=None,
    budget: StateBudget | None = None,
) -> HistoryPreservingReport:
    """Compare run histories against bundle per-agent events, both ways."""
    from .bundles import enumerate_bundles  # late import: no module cycle
    from .core import term_to_event

    bundles = enumerate_bundles(space, conf, max_nodes, budget=budget)

    bundle_profiles: dict[tuple[str, tuple[Event, ...]], object] = {}
    for b in bundles:
        for a in space.agents:
            events = []
            for s in space.strands_of(a):
                for i in range(b.height(s.id)):
                    events.append(term_to_event(s.trace[i]))
            bundle_profiles.setdefault((a, _event_multiset(events)), b)

    run_profiles: dict[tuple[str, tuple[Event, ...]], History] = {}
    for run in runs:
        for g in run.states:
            for a, h in g.items():
                run_profiles.setdefault((a, _event_multiset(h)), h)

    clause1 = tuple(
        sorted(
            (a, run_profiles[(a, ms)])
            for a, ms in run_profiles
            if (a, ms) not in bundle_profiles
        )
    )
    clause2 = tuple(
        sorted(
            ((a, bundle_profiles[(a, ms)], ms) for a, ms in bundle_profiles
             if (a, ms) not in run_profiles),
            key=lambda t: (t[0], t[2]),
        )
    )
    return HistoryPreservingReport(clause1, clause2)
