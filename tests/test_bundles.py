from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandlab.budget import StateBudget
from strandlab.bundles import (
    EMPTY_BUNDLE,
    Bundle,
    ConflictRelation,
    bundle_height,
    causal_edges,
    enumerate_bundles,
    message_equivalent,
    strand_height,
    validate_bundle,
)
from strandlab.core import (
    GlobalState,
    Node,
    Strand,
    StrandSpace,
    negative,
    positive,
    recv,
    sent,
    term_of,
)
from strandlab.errors import BudgetExceededError, InputError

from conftest import relay_space, ring_space, small_spaces, twin_spaces


def r1_exchange_bundle() -> Bundle:
    """u sent and received, then v sent and received."""
    return Bundle.of(
        {"s12": 2, "s21": 2},
        [
            (Node("s12", 1), Node("s21", 1)),
            (Node("s21", 2), Node("s12", 2)),
        ],
    )


def longest_path_oracle(space, bundle) -> int:
    """Edge count of the longest causal path, by exhaustive DFS."""
    nodes = list(bundle.nodes())
    edges = causal_edges(bundle)
    out = {n: [m for a, m in edges if a == n] for n in nodes}

    def depth(n):
        return max((1 + depth(m) for m in out[n]), default=0)

    return max((depth(n) for n in nodes), default=0)


class TestValidateBundle:
    def test_empty_bundle_passes(self, r1_space):
        # [TRIVIAL] all axioms are vacuous
        assert validate_bundle(r1_space, EMPTY_BUNDLE).ok

    def test_relay_exchange_passes(self, r1_space):
        # [PAPER] the u-then-v exchange picture
        assert validate_bundle(r1_space, r1_exchange_bundle()).ok

    def test_unmatched_receive_fails_b2(self, r1_space):
        # [TRIVIAL] dropping the v edge leaves <s12,2> without a sender
        bundle = Bundle.of(
            {"s12": 2, "s21": 2}, [(Node("s12", 1), Node("s21", 1))]
        )
        report = validate_bundle(r1_space, bundle)
        assert report.failed_axioms() == ("B2",)
        assert any("s12,2" in msg for _, msg in report.problems)

    def test_send_reuse_is_a_structural_failure(self):
        space = StrandSpace.identity(
            [
                Strand("w", (positive("u"),)),
                Strand("r1", (negative("u"),)),
                Strand("r2", (negative("u"),)),
            ]
        )
        bundle = Bundle.of(
            {"w": 1, "r1": 1, "r2": 1},
            [(Node("w", 1), Node("r1", 1)), (Node("w", 1), Node("r2", 1))],
        )
        report = validate_bundle(space, bundle)
        assert "edges" in report.failed_axioms()

    def test_cycle_fails_b4(self):
        space = StrandSpace.identity(
            [
                Strand("e", (negative("b"), positive("a"))),
                Strand("f", (negative("a"), positive("b"))),
            ]
        )
        bundle = Bundle.of(
            {"e": 2, "f": 2},
            [(Node("e", 2), Node("f", 1)), (Node("f", 2), Node("e", 1))],
        )
        report = validate_bundle(space, bundle)
        assert report.failed_axioms() == ("B4",)

    def test_conflicting_strands_fail_b5(self, r1_t5_space):
        bundle = Bundle.of({"2__sent-u": 1, "2__sent-x": 1})
        report = validate_bundle(r1_t5_space, bundle)
        assert report.failed_axioms() == ("B5",) and report.checked_b5

    def test_b5_not_checked_without_conf(self, r1_t5_space):
        bundle = Bundle.of({"2__sent-u": 1, "2__sent-x": 1})
        report = validate_bundle(r1_t5_space.without_conflicts(), bundle)
        assert report.ok and not report.checked_b5

    def test_unknown_strand_is_an_input_error(self, r1_space):
        with pytest.raises(InputError):
            validate_bundle(r1_space, Bundle.of({"ghost": 1}))


class TestHeights:
    def test_empty_bundle_height(self, r1_space):
        # [TRIVIAL]
        assert bundle_height(r1_space, EMPTY_BUNDLE) == 0

    def test_exchange_height(self, r1_space):
        # [DERIVED] longest causal path over 4 nodes has 3 edges
        assert bundle_height(r1_space, r1_exchange_bundle()) == 3

    def test_single_send_height(self):
        # [TRIVIAL] one node, no edges
        space = StrandSpace.identity([Strand("s", (positive("u"),))])
        assert bundle_height(space, Bundle.of({"s": 1})) == 0

    def test_height_matches_oracle_on_all_relay_bundles(self, r1_space):
        for bundle in enumerate_bundles(r1_space, 8):
            assert bundle_height(r1_space, bundle) == longest_path_oracle(
                r1_space, bundle
            )

    def test_invalid_bundle_rejected(self, r1_space):
        with pytest.raises(InputError):
            bundle_height(r1_space, Bundle.of({"s21": 1}))

    def test_strand_height(self, r1_space):
        bundle = r1_exchange_bundle()
        assert strand_height(r1_space, EMPTY_BUNDLE, "s12") == 0
        assert strand_height(r1_space, bundle, "s12") == 2
        assert strand_height(r1_space, bundle, "s23") == 0
        with pytest.raises(InputError):
            strand_height(r1_space, bundle, "ghost")


class TestEnumerateBundles:
    def test_max_nodes_zero(self, r1_space):
        # [TRIVIAL]
        assert enumerate_bundles(r1_space, 0) == (EMPTY_BUNDLE,)

    def test_full_exchange_bundle_present(self, r1_space):
        # [PAPER] a bundle containing all eight signed terms exists
        bundles = enumerate_bundles(r1_space, 8)
        full = [b for b in bundles if b.node_count() == 8]
        assert len(full) == 1
        terms = sorted(str(term_of(r1_space, n)) for n in full[0].nodes())
        assert terms == ["+u", "+v", "+x", "+y", "-u", "-v", "-x", "-y"]

    def test_conflict_relation_filters(self, r1_t5_space):
        # [DERIVED] no bundle mixes agent 2's u-side and x-side strands
        bundles = enumerate_bundles(r1_t5_space, 8)
        for bundle in bundles:
            active = set(bundle.active_strands())
            assert not (
                any(s.startswith("2__sent-u") for s in active)
                and any(s.startswith("2__sent-x") for s in active)
            )

    def test_all_results_validate(self, r1_space, nack_space, r1_t5_space):
        for space in (r1_space, nack_space, r1_t5_space):
            for bundle in enumerate_bundles(space, 6):
                assert validate_bundle(space, bundle).ok

    def test_enumeration_is_deterministic(self, nack_space):
        first = enumerate_bundles(nack_space, 6)
        second = enumerate_bundles(nack_space, 6)
        assert first == second

    def test_distinct_matchings_are_distinct_bundles(self):
        space = StrandSpace.identity(
            [
                Strand("w1", (positive("u"),)),
                Strand("w2", (positive("u"),)),
                Strand("r", (negative("u"),)),
            ]
        )
        bundles = enumerate_bundles(space, 3)
        three_node = [b for b in bundles if b.node_count() == 3]
        assert len(three_node) == 2  # the receive can pair with either send

    @given(st.one_of(small_spaces(), twin_spaces()))
    @settings(max_examples=100, deadline=None)
    def test_dropping_a_maximal_node_leaves_an_enumerated_bundle(self, drawn):
        # the fact the enumerator's growth rests on: a nonempty bundle has a
        # maximal node (its strand's top node, feeding no edge if a send),
        # and without it, and a receive's incoming edge, it is a bundle of
        # the enumeration, no higher than before (the reduction of lemma 2)
        space, max_nodes = drawn
        bundles = enumerate_bundles(space, max_nodes)
        known = set(bundles)
        for bundle in bundles:
            tops = [Node(sid, k) for sid, k in bundle.heights]
            maximal = [n for n in tops if all(sender != n for sender, _ in bundle.edges)]
            assert maximal or bundle.is_empty()
            for top in maximal:
                reduced = Bundle.of(
                    {**bundle.height_map, top.strand: top.index - 1},
                    [e for e in bundle.edges if e[1] != top],
                )
                assert reduced in known
                assert bundle_height(space, reduced) <= bundle_height(space, bundle)

    def test_scaling_counts(self, r1_t5_space):
        # bundles and budget ticks (one per distinct bundle found, the empty
        # one included) at the full node cap, so STRANDLAB_MAX_STATES trips
        # at the same bundle count whatever order the growth takes; the
        # two-strand cycle has only the empty bundle, since each strand
        # starts with a receive that no send can feed
        cycle = StrandSpace.identity(
            [Strand("a", (negative("u"), positive("v"))), Strand("b", (negative("v"), positive("u")))]
        )
        expected = {
            ("relay", 2): (relay_space(2), 25, 25),
            ("relay", 3): (relay_space(3), 125, 125),
            ("relay", 4): (relay_space(4), 625, 625),
            ("relay", 5): (relay_space(5), 3_125, 3_125),
            ("relay", 6): (relay_space(6), 15_625, 15_625),
            ("ring", 3): (ring_space(3), 18, 18),
            ("ring", 4): (ring_space(4), 47, 47),
            ("ring", 5): (ring_space(5), 123, 123),
            ("ring", 6): (ring_space(6), 322, 322),
            ("r1_t5", 12): (r1_t5_space, 19, 19),
            ("cycle", 4): (cycle, 1, 1),
        }
        for case, (space, bundles, ticks) in expected.items():
            budget = StateBudget()
            found = enumerate_bundles(space, space.node_count(), budget)
            assert (len(found), budget.used) == (bundles, ticks), case
            with pytest.raises(BudgetExceededError):
                enumerate_bundles(space, space.node_count(), StateBudget(ticks - 1))


class TestMessageEquivalence:
    def test_empty_against_empty(self, ping_space):
        ident = ping_space.with_identity_assignment()
        g = GlobalState.empty(ident.agents)
        assert message_equivalent(ident, g, EMPTY_BUNDLE)

    def test_relay_exchange_state(self, r1_space):
        # [PAPER] the u/v exchange run matches the exchange bundle
        ident = r1_space.with_identity_assignment()
        g = GlobalState.of(
            {
                "s12": (sent("u"), recv("v")),
                "s21": (recv("u"), sent("v")),
                "s23": (),
                "s32": (),
            }
        )
        assert message_equivalent(ident, g, r1_exchange_bundle())
        # [TRIVIAL] height mismatch against the empty bundle
        assert not message_equivalent(ident, g, EMPTY_BUNDLE)

    def test_requires_identity_assignment(self, r1_space):
        g = GlobalState.empty(r1_space.agents)
        with pytest.raises(InputError):
            message_equivalent(r1_space, g, EMPTY_BUNDLE)

    def test_invariant_under_rematching(self):
        space = StrandSpace.identity(
            [
                Strand("w1", (positive("u"),)),
                Strand("w2", (positive("u"),)),
                Strand("r", (negative("u"),)),
            ]
        )
        bundles = [
            b for b in enumerate_bundles(space, 3) if b.node_count() == 3
        ]
        g = GlobalState.of({"w1": (sent("u"),), "w2": (sent("u"),), "r": (recv("u"),)})
        assert all(message_equivalent(space, g, b) for b in bundles)
