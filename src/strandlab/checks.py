"""Bounded exhaustive checks tying the two execution models together.

Each function machine-checks one of the correspondence results at desk
scale and returns a result object with a verdict and human-readable
detail lines.  The numbered entry points (used by the command line) are:

  theorem 1  translating a strand space yields a strand system;
  theorem 2  identity-assigned spaces: occurring global states and
             bundles are message-equivalent, both directions;
  theorem 3  the natural relay space is not history-preserving for the
             relay system, and its translation is a strict superset;
  theorem 4  like theorem 1, for spaces with a conflict relation;
  theorem 5  a history set's conflict-space translation reproduces the
             generated system exactly;
  theorem 6  a joint protocol's runs form a strand system;
  theorem 7  a monotone joint protocol's derived space translates to
             exactly the protocol's runs;
  lemma 1    bundle height grows at most two per chain step;
  lemma 2    identity assignment: every bundle is reached by a chain of
             at most its node count.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .budget import StateBudget, ensure
from .bundles import _longest_causal_path, agent_events, enumerate_bundles
from .chains import step_graph, translate
from .constructions import extended_space_from_system, space_from_monotone
from .core import GlobalState, StrandSpace
from .errors import InputError
from .protocols import JointProtocol, generate_runs
from .systems import (
    HistorySet,
    RunAutomaton,
    check_history_preserving,
    extract_histories,
    generate_system,
    mp_violations,
    systems_equal,
)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    lines: tuple[str, ...]

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        body = "".join(f"\n  {line}" for line in self.lines)
        return f"{verdict} {self.name}{body}"


def _describe_state(g: GlobalState) -> str:
    return "; ".join(f"{a}: {[str(e) for e in h]}" for a, h in g.items())


def node_cap(space: StrandSpace, max_nodes: int | None) -> int:
    """The bundle size a check enumerates: by default the whole space,
    since a truncated enumeration proves nothing."""
    return space.node_count() if max_nodes is None else max_nodes


def strand_system_property(
    runs: RunAutomaton,
    universe: Iterable[str],
    name: str,
    budget: StateBudget | None = None,
) -> CheckResult:
    """The runs pass MP1-MP3 and are regenerated exactly by the system of
    their own extracted histories, at their horizon."""
    lines = [f"{len(runs)} run prefixes at horizon {runs.horizon}"]
    bad = mp_violations(universe, runs)
    if bad:
        lines.append(f"{len(bad)} runs violate MP1-MP3, e.g. {_describe_state(bad.least().final())}")
        return CheckResult(name, False, tuple(lines))
    lines.append("all runs satisfy MP1-MP3")
    regen = generate_system(extract_histories(runs), runs.horizon, budget=budget)
    eq = systems_equal(runs, regen)
    if eq.equal:
        lines.append("regeneration from extracted histories is exact")
    else:
        lines.append(f"regeneration differs, e.g. {_describe_state(eq.witness().final())}")
    return CheckResult(name, eq.equal, tuple(lines))


def theorem_1(
    space: StrandSpace,
    horizon: int = 6,
    max_nodes: int | None = None,
    budget: StateBudget | None = None,
) -> CheckResult:
    """Translating a strand space yields a strand system.  The space's
    conflict relation, if any, is dropped: theorem 4 reads it."""
    space = space.without_conflicts()
    budget = ensure(budget)
    runs = translate(space, horizon, node_cap(space, max_nodes), budget=budget)
    return strand_system_property(
        runs, space.messages(), "translation is a strand system", budget
    )


def theorem_2(
    space: StrandSpace,
    horizon: int = 4,
    max_nodes: int | None = None,
    budget: StateBudget | None = None,
) -> CheckResult:
    """Occurring global states and enumerated bundles correspond exactly
    under message-equivalence (identity assignment)."""
    name = "global states and bundles are message-equivalent"
    ident = space.with_identity_assignment()
    max_nodes = node_cap(ident, max_nodes)
    budget = ensure(budget)
    runs = translate(ident, horizon, max_nodes, budget=budget)
    states = runs.occurring_states()
    bundles = enumerate_bundles(ident, max_nodes, budget=budget)
    lines = [f"{len(states)} occurring states, {len(bundles)} bundles"]
    # a state and a bundle are message-equivalent exactly when the state
    # is the bundle's image
    images = [GlobalState.of(agent_events(ident, b)) for b in bundles]
    orphan_states = sorted(states.difference(images))
    orphan_bundles = [b for b, g in zip(bundles, images) if g not in states]
    if orphan_states:
        lines.append(
            f"{len(orphan_states)} states match no bundle, e.g. "
            + _describe_state(orphan_states[0])
        )
    if orphan_bundles:
        lines.append(f"{len(orphan_bundles)} bundles match no state, e.g. {orphan_bundles[0].heights}")
    ok = not orphan_states and not orphan_bundles
    if ok:
        lines.append("exact correspondence in both directions")
    return CheckResult(name, ok, tuple(lines))


def theorem_3(
    space: StrandSpace,
    hs: HistorySet,
    max_nodes: int | None = None,
    budget: StateBudget | None = None,
) -> CheckResult:
    """The natural relay space fails history preservation for the relay
    system, and its translation strictly exceeds the system.  The space's
    conflict relation, if any, is dropped."""
    name = "no space preserves the relay system's histories"
    space = space.without_conflicts()
    max_nodes = node_cap(space, max_nodes)
    budget = ensure(budget)
    lines = []
    ok = True

    system_runs = generate_system(hs, 6, budget=budget)
    hp = check_history_preserving(space, system_runs, max_nodes, budget=budget)
    if hp.clause1_failures:
        ok = False
        lines.append("clause 1 unexpectedly fails")
    else:
        lines.append("clause 1 holds: every run history appears in some bundle")
    four = [
        (agent, events)
        for agent, _, events in hp.clause2_failures
        if len(events) == 4
    ]
    if four:
        agent, events = four[0]
        lines.append(
            f"clause 2 fails as predicted: bundle gives agent {agent} "
            f"the {len(events)} events {[str(e) for e in events]}"
        )
    else:
        ok = False
        lines.append("clause 2 lacks the expected four-event witness")

    translated = translate(space, 8, max_nodes, budget=budget)
    eq = systems_equal(translated, generate_system(hs, 8, budget=budget))
    if eq.equal or eq.only_in_b:
        ok = False
        lines.append("translation is not a strict superset of the system")
    else:
        # histories never shrink and grow by one event a round at most, so
        # a run passes a four-event history exactly when its final state
        # holds a history of four or more events
        last = eq.only_in_a.horizon
        witness = eq.only_in_a.restrict(
            lambda d, g: d < last or any(len(h) >= 4 for _, h in g.items())
        ).least()
        if witness is not None:
            lines.append(f"translation adds runs, e.g. {_describe_state(witness.final())}")
        else:
            ok = False
            lines.append("superset witness lacks a four-event history")
    return CheckResult(name, ok, tuple(lines))


def theorem_4(
    space: StrandSpace,
    horizon: int = 6,
    max_nodes: int | None = None,
    budget: StateBudget | None = None,
) -> CheckResult:
    """Translating a space with a conflict relation yields a strand system."""
    if space.conflicts is None:
        raise InputError("theorem 4 needs an extended space (with conflicts)")
    budget = ensure(budget)
    runs = translate(space, horizon, node_cap(space, max_nodes), budget=budget)
    return strand_system_property(
        runs, space.messages(), "translation with conflicts is a strand system", budget
    )


def _round_trip(name, header, translated, generated, source) -> CheckResult:
    """A construction's translation must be exactly the runs it realizes."""
    eq = systems_equal(translated, generated)
    lines = [
        header,
        f"{len(translated)} translated vs {len(generated)} {source} run prefixes",
    ]
    if eq.equal:
        lines.append("round trip is exact")
    else:
        lines.append(f"difference, e.g. {_describe_state(eq.witness().final())}")
    return CheckResult(name, eq.equal, tuple(lines))


def theorem_5(
    hs: HistorySet,
    horizon: int = 5,
    budget: StateBudget | None = None,
) -> CheckResult:
    """The conflict-space built from a history set translates back to
    exactly the system the history set generates."""
    name = "history sets are realizable as conflict spaces"
    budget = ensure(budget)
    space = extended_space_from_system(hs)
    translated = translate(space, horizon, node_cap(space, None), budget=budget)
    generated = generate_system(hs, horizon, budget=budget)
    header = f"{len(space.strands)} strands, {len(space.conflicts)} conflict pairs"
    return _round_trip(name, header, translated, generated, "generated")


def theorem_6(
    jp: JointProtocol,
    horizon: int = 6,
    budget: StateBudget | None = None,
) -> CheckResult:
    """A joint protocol's runs form a strand system."""
    budget = ensure(budget)
    runs = generate_runs(jp, horizon, budget=budget)
    return strand_system_property(runs, jp.messages, "protocol runs form a strand system", budget)


def theorem_7(
    jp: JointProtocol,
    horizon: int = 6,
    max_nodes: int | None = None,
    budget: StateBudget | None = None,
) -> CheckResult:
    """A monotone joint protocol's derived space translates to exactly
    the protocol's runs.  Non-monotone input is a usage error."""
    name = "monotone protocols are realizable as strand spaces"
    budget = ensure(budget)
    space = space_from_monotone(jp)  # raises InputError when not monotone
    translated = translate(space, horizon, node_cap(space, max_nodes), budget=budget)
    generated = generate_runs(jp, horizon, budget=budget)
    header = f"{len(space.strands)} strands derived from the protocol"
    return _round_trip(name, header, translated, generated, "protocol")


def lemma_1(
    space: StrandSpace,
    max_nodes: int | None = None,
    budget: StateBudget | None = None,
) -> CheckResult:
    """Bundle height is at most twice the number of chain steps.

    Checked in the equivalent per-bundle form: every reachable bundle's
    height is at most twice its least chain distance, which bounds every
    chain of every length at once.
    """
    name = "height grows at most two per chain step"
    budget = ensure(budget)
    dist = step_graph(space, node_cap(space, max_nodes), budget).distance
    # bundles of the step relation are valid by construction
    violations = [
        (b, d)
        for b, d in dist.items()
        if _longest_causal_path(b) > 2 * d
    ]
    lines = [f"{len(dist)} reachable bundles"]
    if violations:
        b, d = min(violations, key=lambda bd: (bd[1], bd[0].sort_key()))
        lines.append(
            f"violation: bundle {b.heights} has height "
            f"{_longest_causal_path(b)} at distance {d}"
        )
    else:
        lines.append("height <= 2 * distance everywhere")
    return CheckResult(name, not violations, tuple(lines))


def lemma_2(
    space: StrandSpace,
    max_nodes: int | None = None,
    budget: StateBudget | None = None,
) -> CheckResult:
    """With the identity assignment, every bundle is the end of a chain
    of at most node-count steps."""
    name = "every bundle is reachable within its node count"
    budget = ensure(budget)
    ident = space.with_identity_assignment()
    max_nodes = node_cap(ident, max_nodes)
    bundles = enumerate_bundles(ident, max_nodes, budget=budget)
    dist = step_graph(ident, max_nodes, budget).distance
    misses = [
        b
        for b in bundles
        if b not in dist or dist[b] > b.node_count()
    ]
    lines = [f"{len(bundles)} bundles enumerated"]
    if misses:
        lines.append(f"unreached or slow: {misses[0].heights}")
    else:
        lines.append("all bundles reached within their node counts")
    return CheckResult(name, not misses, tuple(lines))

