"""Generated instances: drawn strand spaces against slow references and
against the paper's theorems.

Theorems 1 and 4 and lemmas 1 and 2 hold on every space, and theorem 2
on every space once the horizon reaches the node count, so a FAIL here
is a bug in the code, not in the input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandlab.bundles import Bundle, agent_events, enumerate_bundles
from strandlab.chains import enumerate_chain_prefixes, translate
from strandlab.checks import lemma_1, lemma_2, theorem_1, theorem_2, theorem_4
from strandlab.core import GlobalState
from strandlab.errors import InputError

from conftest import small_spaces, twin_spaces
from reference import (
    BundleReport, brute_force_bundles, reference_message_equivalent, run_from_chain, validate_bundle,
)


@given(st.one_of(small_spaces(), twin_spaces()))
@settings(max_examples=120, deadline=None)
def test_enumerate_bundles_matches_brute_force(drawn):
    # with and without conflicts: both strategies draw both, and twice the
    # examples keep small_spaces' share of the draws
    space, max_nodes = drawn
    bundles = enumerate_bundles(space, max_nodes)
    assert bundles == brute_force_bundles(space, max_nodes)
    # every axiom holds, B5 included: the enumerator prunes by the relation
    # the validator reads, the space's own
    passed = BundleReport((), checked_b5=space.conflicts is not None)
    assert all(validate_bundle(space, b) == passed for b in bundles)


@given(small_spaces(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_translate_matches_chain_enumeration(drawn, horizon):
    # the explorer against reading off every chain, conflicts included
    space, max_nodes = drawn
    via_chains = {
        run_from_chain(c) for c in enumerate_chain_prefixes(space, horizon, max_nodes)
    }
    runs = translate(space, horizon, max_nodes)
    assert runs == via_chains
    assert (runs.agents, runs.horizon) == (space.agents, horizon)


@given(small_spaces())
@settings(max_examples=60, deadline=None)
def test_message_equivalent_matches_strand_by_strand(drawn):
    # theorem 2's rule, a state is equivalent to a bundle when it is the
    # bundle's image, on every (state, bundle) pair: the bundles' own
    # images and the states the translation reaches, so that both answers
    # occur
    ident = drawn[0].with_identity_assignment()
    max_nodes = drawn[1]
    bundles = enumerate_bundles(ident, max_nodes)
    images = [GlobalState.of(agent_events(ident, b)) for b in bundles]
    states = set(translate(ident, 2, max_nodes).occurring_states()).union(images)
    for g in states:
        for b, image in zip(bundles, images):
            assert (g == image) == reference_message_equivalent(ident, g, b)


def test_message_equivalent_rejects_unknown_strand(ping_space):
    ident = ping_space.with_identity_assignment()
    with pytest.raises(InputError):
        agent_events(ident, Bundle.of({"nowhere": 1}))


@given(small_spaces())
@settings(max_examples=40, deadline=None)
def test_translation_theorems_and_lemmas_hold(drawn):
    # at the default node cap, the whole space
    space, _ = drawn
    if space.conflicts is None:
        result = theorem_1(space, horizon=3)
    else:
        result = theorem_4(space, horizon=3)
    assert result.ok, result.render()
    for result in (lemma_1(space), lemma_2(space)):
        assert result.ok, result.render()


@given(small_spaces(space_nodes=9))
@settings(max_examples=40, deadline=None)
def test_theorem_2_holds_once_horizon_reaches_node_cap(drawn):
    # the horizon is the node count, and the run set grows with it: at 10
    # to 12 nodes, spaces sending one message many times (over a thousand
    # bundles) took seconds each, so the drawn spaces stop at 9 nodes
    space = drawn[0]
    result = theorem_2(space, horizon=space.node_count())
    assert result.ok, result.render()


def test_theorem_2_lines_match_strand_by_strand(monkeypatch, nack_space, r1_space):
    # with the bundles of three or more nodes withheld, some states match
    # no bundle; the line must count and name what the pairwise search does
    from strandlab import checks

    real = checks.enumerate_bundles
    monkeypatch.setattr(
        checks,
        "enumerate_bundles",
        lambda *args, **kw: tuple(b for b in real(*args, **kw) if b.node_count() <= 2),
    )
    for space, horizon in ((nack_space, 3), (r1_space, 2)):
        ident = space.with_identity_assignment()
        n = ident.node_count()
        states = translate(ident, horizon, n).occurring_states()
        bundles = checks.enumerate_bundles(ident, n)
        orphans = [
            g for g in sorted(states)
            if not any(reference_message_equivalent(ident, g, b) for b in bundles)
        ]
        assert orphans
        result = theorem_2(space, horizon=horizon)
        assert not result.ok
        assert result.lines[1] == (
            f"{len(orphans)} states match no bundle, e.g. "
            + "; ".join(f"{a}: {[str(e) for e in h]}" for a, h in orphans[0].items())
        )


def test_lemma_1_names_least_violation(monkeypatch, r1_space):
    # every bundle at distance 1 violates; several tie, and the line names
    # the least by sort key whatever order the distances come in
    from strandlab import checks

    monkeypatch.setattr(checks, "_longest_causal_path", lambda b: 3 if b.heights else 0)
    real = checks.step_graph

    def reversed_distances(*args, **kw):
        graph = real(*args, **kw)
        return graph._replace(distance=dict(reversed(graph.distance.items())))

    monkeypatch.setattr(checks, "step_graph", reversed_distances)
    result = checks.lemma_1(r1_space)
    assert not result.ok
    dist = real(r1_space, r1_space.node_count()).distance
    assert sum(d == 1 for d in dist.values()) > 1
    assert result.lines[1] == "violation: bundle (('s12', 1),) has height 3 at distance 1"
