"""The FAIL lines of the checks, each rendered at least once.

The shipped fixtures pass every check they are given, so these lines show
only on inputs made to fail: a horizon too short, a history set the space
cannot realize, hand-built run sets, or one layer patched to misreport.
"""

from __future__ import annotations

from strandlab import checks
from strandlab.bundles import enumerate_bundles
from strandlab.core import GlobalState, recv, sent
from strandlab.systems import HistorySet, RunAutomaton, RunPrefix

EMPTY = GlobalState.of({"a": ()})
SENT = GlobalState.of({"a": (sent("u"),)})
RECEIVED = GlobalState.of({"a": (recv("u"),)})


def runs(*states_per_run: tuple[GlobalState, ...]) -> RunAutomaton:
    """The run set of the given runs of agent a, all of one horizon."""
    return RunAutomaton.of(
        [RunPrefix(states) for states in states_per_run], ["a"], len(states_per_run[0]) - 1
    )


def assert_fails(result: checks.CheckResult, *lines: str) -> None:
    assert not result.ok
    assert result.lines == lines
    assert result.render() == "\n  ".join([f"FAIL {result.name}", *lines])


def test_strand_system_property_names_an_mp_violation():
    # a receive that no send justifies fails MP2
    result = checks.strand_system_property(runs((EMPTY, RECEIVED)), {"u"}, "prop")
    assert_fails(
        result, "1 run prefixes at horizon 1", "1 runs violate MP1-MP3, e.g. a: ['recv u']"
    )


def test_strand_system_property_names_a_run_regeneration_adds():
    # the histories of the one run also let agent a stutter, a run the set lacks
    result = checks.strand_system_property(runs((EMPTY, SENT)), {"u"}, "prop")
    assert_fails(
        result,
        "1 run prefixes at horizon 1",
        "all runs satisfy MP1-MP3",
        "regeneration differs, e.g. a: []",
    )


def test_round_trip_names_the_least_difference():
    # no run only in the translation, so the witness is the generated one's
    result = checks._round_trip(
        "trip", "header", runs((EMPTY, SENT)), runs((EMPTY, EMPTY), (EMPTY, SENT)), "protocol"
    )
    assert_fails(
        result,
        "header",
        "1 translated vs 2 protocol run prefixes",
        "difference, e.g. a: []",
    )


def test_theorem_2_names_bundles_past_the_horizon(ping_space):
    # at horizon 0 a run is its empty initial state, so every bundle but
    # the empty one matches no state
    ident = ping_space.with_identity_assignment()
    bundles = enumerate_bundles(ident, ident.node_count())
    orphans = [b for b in bundles if b.heights]
    assert orphans
    assert_fails(
        checks.theorem_2(ping_space, horizon=0),
        f"1 occurring states, {len(bundles)} bundles",
        f"{len(orphans)} bundles match no state, e.g. {orphans[0].heights}",
    )


def test_theorem_3_fails_on_a_system_the_space_cannot_realize(ping_space):
    # agent a's second send is in no bundle of the ping space (clause 1),
    # no bundle gives an agent four events, and the system has runs the
    # translation lacks
    hs = HistorySet.of(
        {"a": [(), (sent("u"),), (sent("u"), sent("u"))], "b": [(), (recv("u"),)]}
    )
    assert_fails(
        checks.theorem_3(ping_space, hs),
        "clause 1 unexpectedly fails",
        "clause 2 lacks the expected four-event witness",
        "translation is not a strict superset of the system",
    )


def test_lemma_2_names_the_first_unreached_bundle(monkeypatch, ping_space):
    # with only the empty bundle reached, the first nonempty one is named
    real = checks.bundle_distances
    monkeypatch.setattr(
        checks,
        "bundle_distances",
        lambda *args, **kw: {b: d for b, d in real(*args, **kw).items() if not b.heights},
    )
    ident = ping_space.with_identity_assignment()
    bundles = enumerate_bundles(ident, ident.node_count())
    first = next(b for b in bundles if b.heights)
    assert_fails(
        checks.lemma_2(ping_space),
        f"{len(bundles)} bundles enumerated",
        f"unreached or slow: {first.heights}",
    )
