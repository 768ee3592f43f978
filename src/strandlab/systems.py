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

A run set is a `RunAutomaton`, a layered DAG whose level-d nodes are
the distinct (global state, search state) pairs that prefixes reach in d
rounds; its paths from level 0 to the horizon are the run prefixes.
Like a system of the paper, it is a set of runs of fixed agents, and a
run set with no runs still has its agents and its horizon (as many
levels, all empty).  Each node keeps its successors as one map from
global state to node index, which serves iteration, membership and the
walks alike.  The prefix tree of a plain set of runs
(`RunAutomaton.of`, given their agents and horizon) is built by
inserting the runs one by one, each from the root.  Every other
automaton is an exploration: `explore` walks successors round by round,
and its caller names the agents and the horizon.  History sets
(`generate_system`) and protocols (`protocols.generate_runs`) feed it
`joint_round`: each agent stutters or appends one of its options, and
MP2 filters the outcome.
The runs passing a per-state and per-round condition
(`RunAutomaton.restrict`) and the runs of one automaton missing from
another (`_only_in`) are explorations of an existing automaton.
`mp_violations` is one such difference, the runs minus those passing
MP1-MP3 (the other way round it is empty), with each condition decided
once per distinct state or round; `systems_equal` takes both, after
checking that the two horizons agree.
Counts, membership, occurring states and least witnesses are read off
nodes and edges; `RunPrefix` values are built only when a caller
iterates a set.

History preservation compares the histories of the occurring states
with `bundles.agent_events` of every bundle, as per-agent multisets, for
runs over the space's agents.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Set as AbstractSet
from functools import cache
from itertools import product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .budget import StateBudget, ensure
from .bundles import agent_events, enumerate_bundles
from .core import Event, GlobalState, History
from .errors import IllFormedError, InputError

MP2_STRONG = "strong"
MP2_LITERAL = "literal"


class RunPrefix(namedtuple("RunPrefix", "states")):
    """A sequence of global states g_0, ..., g_T."""

    __slots__ = ()

    def __new__(cls, states: tuple[GlobalState, ...]):
        if not states:
            raise InputError("a run prefix contains at least the initial state")
        return tuple.__new__(cls, (states,))

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


class RunAutomaton(AbstractSet):
    """A set of run prefixes of one horizon over fixed agents, as a
    layered DAG.

    ``agents`` are the sorted agent names and the horizon is the number
    of levels of ``children``; both are kept when the set is empty.
    Level d holds the nodes a prefix can be in after d rounds.  Each node's
    successors are one map from global state to node index:
    ``children[d][i]`` maps node i of level d's successors to their indices
    at level d + 1, and ``roots`` does the same for level 0, both in
    increasing state order.  ``accepts[i]`` says whether node i of the
    last level ends a run.  Each path from a root to an accepting node
    spells one run prefix and distinct paths spell distinct prefixes, so
    the set is its paths: ``len`` counts them, ``in`` follows one, and
    iteration yields them in increasing `RunPrefix` order, one budget
    tick per run, holding one at a time.
    """

    def __init__(
        self,
        agents: tuple[str, ...],
        roots: dict[GlobalState, int],
        children: Sequence[Sequence[dict[GlobalState, int]]],
        accepts: Sequence[bool],
        budget: StateBudget,
    ):
        self.agents = agents
        self.roots = roots
        self.children = children
        self.accepts = accepts
        self.budget = budget
        # completions[d][i]: accepted paths from node i to the last level
        completions = [[int(a) for a in self.accepts]]
        for level in reversed(children):
            below = completions[0]
            completions.insert(0, [sum(below[c] for c in kids.values()) for kids in level])
        self._completions = completions

    @classmethod
    def of(
        cls, runs: Iterable[RunPrefix], agents: Iterable[str], horizon: int
    ) -> "RunAutomaton":
        """The prefix tree of a set of runs of the given agents and
        horizon, built by inserting each run in turn from the root: each
        state is looked up in its parent's child map, so in any order the
        tree is the same.  One budget tick per edge.  The states' agents
        are not compared with ``agents``: a run over others fails MP1."""
        if horizon < 0:
            raise InputError("horizon must be non-negative")
        budget = StateBudget()
        # nodes[d][i]: the child map of node i of level d
        nodes: list[list[dict[GlobalState, int]]] = [[] for _ in range(horizon + 1)]
        roots: dict[GlobalState, int] = {}
        for run in runs:
            states = run.states
            if len(states) != horizon + 1:
                raise InputError(f"horizon mismatch: {sorted({run.horizon, horizon})}")
            kids = roots
            for d, g in enumerate(states):
                i = kids.get(g)
                if i is None:
                    if d:
                        budget.tick()
                    level = nodes[d]
                    i = kids[g] = len(level)
                    level.append({})
                kids = nodes[d][i]
        children = [[_sorted(kids) for kids in level] for level in nodes[:-1]]
        agents = tuple(sorted(set(agents)))
        return cls(agents, _sorted(roots), children, [True] * len(nodes[-1]), budget)

    @property
    def horizon(self) -> int:
        return len(self.children)

    def __len__(self) -> int:
        return sum(self._completions[0])

    def __iter__(self) -> Iterator[RunPrefix]:
        completions, last = self._completions, self.horizon
        states: list[GlobalState] = [None] * (last + 1)  # type: ignore[list-item]
        stack = [iter(self.roots.items())]
        while stack:
            d = len(stack) - 1
            step = next(((g, i) for g, i in stack[-1] if completions[d][i]), None)
            if step is None:
                stack.pop()
                continue
            states[d], i = step
            if d == last:
                self.budget.tick()
                yield RunPrefix(tuple(states))
            else:
                stack.append(iter(self.children[d][i].items()))

    def __contains__(self, run: object) -> bool:
        if not isinstance(run, RunPrefix) or run.horizon != self.horizon:
            return False
        i = self.roots.get(run.states[0])
        for d, g in enumerate(run.states[1:]):
            if i is None:
                return False
            i = self.children[d][i].get(g)
        return i is not None and self.accepts[i]

    @classmethod
    def _from_iterable(cls, runs: Iterable[RunPrefix]) -> frozenset[RunPrefix]:
        # what the Set mixins (&, |, -, ^) build: a plain set
        return frozenset(runs)

    def least(self) -> RunPrefix | None:
        """The least run, reached by always descending to the least child
        that still completes; None for the empty set."""
        return next(iter(self), None)

    def occurring_states(self) -> frozenset[GlobalState]:
        """Every global state of every run: the keys of the children that
        still complete, level by level."""
        completions = self._completions
        live = {i: g for g, i in self.roots.items() if completions[0][i]}
        out = set(live.values())
        for d, level in enumerate(self.children):
            live = {c: g for i in live for g, c in level[i].items() if completions[d + 1][c]}
            out.update(live.values())
        return frozenset(out)

    def restrict(
        self,
        state_ok: Callable[[int, GlobalState], bool] = lambda d, g: True,
        step_ok: Callable[[GlobalState, GlobalState], bool] = lambda g, g2: True,
    ) -> "RunAutomaton":
        """The runs whose every state passes ``state_ok(d, g)`` (g the state
        after d rounds) and every round ``step_ok(g, g2)``."""

        def kept(d: int, g: GlobalState | None, kids: dict[GlobalState, int]):
            return [
                (g2, (d, c))
                for g2, c in kids.items()
                if state_ok(d, g2) and (g is None or step_ok(g, g2))
            ]

        return explore(
            kept(0, None, self.roots),
            lambda g, node: kept(node[0] + 1, g, self.children[node[0]][node[1]]),
            self.agents,
            self.horizon,
            self.budget,
            accepts=lambda node: self.accepts[node[1]],
        )


class HistorySet(namedtuple("HistorySet", "per_agent")):
    """Per-agent finite sets of admissible local histories.  Each set holds
    the empty history (time 0 is reachable) and each history's proper
    prefixes (every intermediate state occurs): inputs are validated, not
    silently closed."""

    __slots__ = ()

    def __new__(cls, per_agent: tuple[tuple[str, tuple[History, ...]], ...]):
        problems = []
        for a, hs in per_agent:
            pool = set(hs)
            if () not in pool:
                problems.append(f"history set for agent {a} lacks the empty history")
            for h in hs:
                if any(h[:k] not in pool for k in range(1, len(h))):
                    problems.append(
                        f"history set for agent {a} lacks a prefix of {list(map(str, h))}"
                    )
        if problems:
            raise IllFormedError(problems)
        return tuple.__new__(cls, (per_agent,))

    @classmethod
    def of(cls, mapping: Mapping[str, Iterable[History]]) -> "HistorySet":
        per_agent = ((a, tuple(sorted(set(map(tuple, hs))))) for a, hs in mapping.items())
        return cls(tuple(sorted(per_agent)))

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


class MPReport(NamedTuple):
    """Pass/fail per message-passing condition, with first violations."""

    mp1: str | None
    mp2: str | None
    mp3: str | None

    @property
    def ok(self) -> bool:
        return self.mp1 is None and self.mp2 is None and self.mp3 is None


def _mp1_problem(
    universe: frozenset[str], agents: tuple[str, ...], g: GlobalState, m: int
) -> str | None:
    """None when the state at time m is a history per agent over the universe."""
    if g.agents != agents:
        return f"state at time {m} does not cover the agent set"
    for a, h in g.items():
        bad = next((e for e in h if e.message not in universe), None)
        if bad is not None:
            return f"agent {a} at time {m}: message {bad.message} not in universe"
    return None


def _mp3_problem(g: GlobalState, g2: GlobalState, m: int) -> str | None:
    """None when every history of g2, the state at time m, equals or
    extends by one event its history in g."""
    for (a, h), (_, h2) in zip(g.items(), g2.items()):
        if not (h2 == h or (len(h2) == len(h) + 1 and h2[: len(h)] == h)):
            return f"agent {a} history shrinks or jumps at time {m}"
    return None


def _is_empty(g: GlobalState) -> bool:
    return not any(h for _, h in g.items())


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
    states = run.states

    def first(problems) -> str | None:
        return next((p for p in problems if p is not None), None)

    mp1 = first(_mp1_problem(universe, agents, g, m) for m, g in enumerate(states))
    if not _is_empty(states[0]):
        mp3 = "initial state is not empty"
    else:
        mp3 = first(_mp3_problem(states[m - 1], states[m], m) for m in range(1, len(states)))
    mp2_failure = None
    for m, g in enumerate(states):
        problem = mp2_problem(g, mp2)
        if problem is not None:
            mp2_failure = f"at time {m}: {problem}"
            break
    return MPReport(mp1=mp1, mp2=mp2_failure, mp3=mp3)


def mp_violations(universe: Iterable[str], runs: RunAutomaton) -> RunAutomaton:
    """The runs that fail MP1-MP3 (strong MP2), MP1 over the run set's
    agents.  MP1 and MP2 are decided once per distinct global state and
    MP3 once per distinct round (pair of states), however many automaton
    nodes and edges repeat them; only the emptiness of the initial state
    depends on the time."""
    universe = frozenset(universe)
    agents = runs.agents

    @cache
    def mp1_mp2(g: GlobalState) -> bool:
        return _mp1_problem(universe, agents, g, 0) is None and mp2_problem(g, MP2_STRONG) is None

    @cache
    def mp3(g: GlobalState, g2: GlobalState) -> bool:
        return _mp3_problem(g, g2, 1) is None

    good = runs.restrict(lambda m, g: mp1_mp2(g) and (m > 0 or _is_empty(g)), mp3)
    return _only_in(runs, good)


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


_state = itemgetter(0)


def _sorted(kids: dict[GlobalState, int]) -> dict[GlobalState, int]:
    """A child map in increasing state order."""
    return dict(sorted(kids.items(), key=_state)) if len(kids) > 1 else kids


def explore(
    starts: Iterable[tuple[GlobalState, object]],
    successors: Callable[[GlobalState, object], Iterable[tuple[GlobalState, object]]],
    agents: tuple[str, ...],
    horizon: int,
    budget: StateBudget | None = None,
    accepts: Callable[[object], bool] | None = None,
) -> RunAutomaton:
    """All run prefixes of exactly `horizon` rounds from the `starts`,
    pairs of initial global state and search state, as a run set over the
    sorted ``agents`` whose level-d nodes are the distinct pairs reached
    in d rounds.
    ``successors(g, search)`` lists pairs with distinct next global
    states, so paths and run prefixes correspond one to one, and each
    node's child map is built as its edges are added, then sorted once.
    ``accepts(search)``, when given, picks the last-level nodes that end a
    run.  One budget tick per automaton edge."""
    if horizon < 0:
        raise InputError("horizon must be non-negative")
    budget = ensure(budget)
    # each pair maps to its node as an edge target: (state, index), the
    # state being the object first reached, which every edge then shares
    level: dict[tuple[GlobalState, object], tuple[GlobalState, int]] = {}
    for pair in starts:
        level.setdefault(pair, (pair[0], len(level)))
    roots = dict(sorted(level.values(), key=_state))
    children: list[list[dict[GlobalState, int]]] = []
    for _ in range(horizon):
        nxt: dict[tuple[GlobalState, object], tuple[GlobalState, int]] = {}
        rows = []
        for g, search in level:
            row = []
            for pair in successors(g, search):
                budget.tick()
                row.append(nxt.setdefault(pair, (pair[0], len(nxt))))
            rows.append(dict(sorted(row, key=_state)))
        children.append(rows)
        level = nxt
    final = [accepts is None or accepts(search) for _, search in level]
    return RunAutomaton(agents, roots, children, final, budget)


def generate_system(
    hs: HistorySet,
    horizon: int,
    budget: StateBudget | None = None,
) -> RunAutomaton:
    """All run prefixes of the given length whose local states stay in hs.

    Each round every agent stutters or appends an event keeping its history
    admissible, and the round's receives stay justified (strong MP2).
    """
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

    return explore(
        [(GlobalState.empty(hs.agents), None)], successors, hs.agents, horizon, budget
    )


def extract_histories(runs: RunAutomaton) -> HistorySet:
    """All local histories occurring anywhere in the given runs."""
    states = runs.occurring_states()
    if not states:
        raise InputError("cannot extract histories from an empty run set")
    acc: dict[str, set[History]] = {}
    for g in states:
        for a, h in g.items():
            acc.setdefault(a, set()).add(h)
    return HistorySet.of(acc)


class EqualityReport(NamedTuple):
    """Outcome of a horizon-bounded run-set comparison."""

    equal: bool
    only_in_a: RunAutomaton
    only_in_b: RunAutomaton

    def witness(self) -> RunPrefix | None:
        """The least run only in a, else the least only in b."""
        return self.only_in_a.least() or self.only_in_b.least()


def _only_in(x: RunAutomaton, y: RunAutomaton) -> RunAutomaton:
    """The runs of x that are not runs of y, from the product of the two:
    each node of x paired with the node of y that the same prefix
    reaches, or None once y has no such prefix."""

    def paired(d: int, xs: dict[GlobalState, int], ys: dict[GlobalState, int]):
        return [(g, (d, i, ys.get(g))) for g, i in xs.items()]

    def successors(g: GlobalState, node: tuple):
        d, i, j = node
        return paired(d + 1, x.children[d][i], {} if j is None else y.children[d][j])

    return explore(
        paired(0, x.roots, y.roots),
        successors,
        x.agents,
        x.horizon,
        x.budget,
        accepts=lambda node: x.accepts[node[1]] and (node[2] is None or not y.accepts[node[2]]),
    )


def systems_equal(a: RunAutomaton, b: RunAutomaton) -> EqualityReport:
    """Set equality of two run sets of the same horizon and agents, empty
    or not; two horizons, or two sets of agents, are an `InputError`.

    The runs only in a and only in b are automata read off the product of
    the two, so their sizes come from path counts and their least runs
    from a descent, without materializing either set."""
    if a.horizon != b.horizon:
        raise InputError(f"horizon mismatch: {sorted({a.horizon, b.horizon})}")
    if a.agents != b.agents:
        raise InputError(f"agent mismatch: first {list(a.agents)}, second {list(b.agents)}")
    if not a or not b:
        return EqualityReport(equal=not a and not b, only_in_a=a, only_in_b=b)
    only_a, only_b = _only_in(a, b), _only_in(b, a)
    return EqualityReport(equal=not only_a and not only_b, only_in_a=only_a, only_in_b=only_b)


def _event_multiset(events: Iterable[Event]) -> tuple[Event, ...]:
    return tuple(sorted(events))


class HistoryPreservingReport(NamedTuple):
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
    runs: RunAutomaton,
    max_nodes: int,
    budget: StateBudget | None = None,
) -> HistoryPreservingReport:
    """Compare run histories against bundle per-agent events, both ways.
    Runs over other agents than the space's are an `InputError`: they
    share no history with any bundle."""
    if runs.agents != space.agents:
        raise InputError(f"agent mismatch: space {list(space.agents)}, runs {list(runs.agents)}")
    bundle_profiles: dict[tuple[str, tuple[Event, ...]], object] = {}
    for b in enumerate_bundles(space, max_nodes, budget=budget):
        for a, events in agent_events(space, b).items():
            bundle_profiles.setdefault((a, _event_multiset(events)), b)

    # the least history per multiset, so the witnesses do not depend on
    # the order in which states are visited
    run_profiles: dict[tuple[str, tuple[Event, ...]], History] = {}
    for g in runs.occurring_states():
        for a, h in g.items():
            key = (a, _event_multiset(h))
            if key not in run_profiles or h < run_profiles[key]:
                run_profiles[key] = h

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
