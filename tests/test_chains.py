from __future__ import annotations

import pytest
from hypothesis import given, settings

from strandlab.budget import StateBudget
from strandlab.bundles import EMPTY_BUNDLE, Bundle, enumerate_bundles
from strandlab.chains import ChainPrefix, check_step, enumerate_chain_prefixes, step_graph, translate
from strandlab.core import Node, Strand, StrandSpace, negative, positive, recv, sent
from strandlab.errors import InputError
from strandlab.systems import check_mp

from conftest import relay_space, ring_space, small_spaces, twin_spaces
from reference import bfs_distances, bundle_height, hist, pairwise_step_graph, run_from_chain


def prefix_jump_space() -> StrandSpace:
    """One agent with strands +u and +u,+v: a step may move the +u prefix."""
    return StrandSpace.of(
        [Strand("s", (positive("u"),)), Strand("sp", (positive("u"), positive("v")))],
        ["a"],
        {"s": "a", "sp": "a"},
    )


def build_chain(space, bundles) -> ChainPrefix:
    """Assemble a chain from consecutive bundles, verifying each step."""
    witnesses = []
    for b1, b2 in zip(bundles, bundles[1:]):
        witness = check_step(space, b1, b2)
        assert witness is not None, f"no step from {b1.heights} to {b2.heights}"
        witnesses.append(witness)
    return ChainPrefix(
        agents=space.agents, bundles=tuple(bundles), witnesses=tuple(witnesses)
    )


def r1_exchange_chain(space) -> ChainPrefix:
    """Four single-extension steps building the u/v exchange."""
    b1 = Bundle.of({"s12": 1})
    b2 = Bundle.of({"s12": 1, "s21": 1}, [(Node("s12", 1), Node("s21", 1))])
    b3 = Bundle.of({"s12": 1, "s21": 2}, [(Node("s12", 1), Node("s21", 1))])
    b4 = Bundle.of(
        {"s12": 2, "s21": 2},
        [(Node("s12", 1), Node("s21", 1)), (Node("s21", 2), Node("s12", 2))],
    )
    return build_chain(space, [EMPTY_BUNDLE, b1, b2, b3, b4])


def extension_agents_in_order(graph) -> int:
    """Assert that every witness of the step graph lists its extensions in
    increasing agent order; the number of witnesses extending several
    agents."""
    several = 0
    for succ in graph.successors.values():
        for _, witness in succ:
            agents = [a for a, _, _ in witness.extensions]
            assert agents == sorted(set(agents)), witness
            several += len(agents) > 1
    return several


class TestCheckStep:
    def test_stuttering_step(self, r1_space):
        # [TRIVIAL] every bundle steps to itself with no extensions
        for bundle in enumerate_bundles(r1_space, 8):
            witness = check_step(r1_space, bundle, bundle)
            assert witness is not None
            assert witness.extensions == ()

    def test_first_send_extension(self, r1_space):
        # [PAPER] extending by a +u node performs sent(u)
        witness = check_step(r1_space, EMPTY_BUNDLE, Bundle.of({"s12": 1}))
        assert witness is not None
        assert witness.extensions == (("2", "s12", sent("u")),)

    def test_prefix_jump_between_same_agent_strands(self):
        # [PAPER] the witnessing bijection may move a prefix to a longer strand
        space = prefix_jump_space()
        witness = check_step(space, Bundle.of({"s": 1}), Bundle.of({"sp": 2}))
        assert witness is not None
        assert dict(witness.f)["s"] == "sp"
        assert witness.extensions == (("a", "sp", sent("v")),)

    def test_two_node_jump_rejected(self, r1_space):
        # growing an agent by two nodes in one step is not a step
        b2 = Bundle.of(
            {"s12": 1, "s21": 2}, [(Node("s12", 1), Node("s21", 1))]
        )
        assert check_step(r1_space, EMPTY_BUNDLE, b2) is None

    def test_edge_preservation_required(self):
        # two senders of u; the receive must keep its original sender
        space = StrandSpace.identity(
            [
                Strand("w1", (positive("u"),)),
                Strand("w2", (positive("u"),)),
                Strand("r", (negative("u"),)),
            ]
        )
        b1 = Bundle.of(
            {"w1": 1, "w2": 1, "r": 1}, [(Node("w1", 1), Node("r", 1))]
        )
        b2 = Bundle.of(
            {"w1": 1, "w2": 1, "r": 1}, [(Node("w2", 1), Node("r", 1))]
        )
        assert check_step(space, b1, b2) is None

    def test_unknown_strand_is_an_input_error(self, r1_space):
        with pytest.raises(InputError, match="unknown strand id: 'zz'"):
            check_step(r1_space, EMPTY_BUNDLE, Bundle.of({"zz": 1}))


class TestStepGraph:
    def test_matches_pairwise_check_step(
        self, r1_space, r1_t5_space, nack_space, ping_space, cold_cache
    ):
        # the forward-built step graph against check_step on every pair of
        # enumerated bundles: same bundles, successors, order and witnesses;
        # its distances against a breadth-first search over its successors
        cases = [
            r1_space,
            r1_t5_space,
            nack_space,
            ping_space,
            r1_space.with_identity_assignment(),
            nack_space.with_identity_assignment(),
            ring_space(3),
            prefix_jump_space(),
            relay_space(3),
            ring_space(4),
        ]
        for space in cases:
            n = space.node_count()
            graph = step_graph(space, n)
            assert tuple(graph.successors) == enumerate_bundles(space, n)
            assert graph.successors == pairwise_step_graph(space, n)
            assert graph.distance == bfs_distances(graph)

    @given(small_spaces())
    @settings(max_examples=150, deadline=None)
    def test_drawn_spaces_match_pairwise_check_step(self, drawn):
        # the drawn space, and its strands each their own agent, where one
        # step adds sends and receives on several agents at once
        drawn_space, max_nodes = drawn
        for space in (drawn_space, drawn_space.with_identity_assignment()):
            graph = step_graph(space, max_nodes)
            assert tuple(graph.successors) == enumerate_bundles(space, max_nodes)
            assert graph.successors == pairwise_step_graph(space, max_nodes)
            assert graph.distance == bfs_distances(graph)
            extension_agents_in_order(graph)

    @given(twin_spaces())
    @settings(max_examples=80, deadline=None)
    def test_twin_strands_match_pairwise_check_step(self, drawn):
        # every agent has strands sharing a first term, so witness maps
        # other than the identity move prefixes, and the search re-encodes
        # the moved bundle
        space, max_nodes = drawn
        graph = step_graph(space, max_nodes)
        assert tuple(graph.successors) == enumerate_bundles(space, max_nodes)
        assert graph.successors == pairwise_step_graph(space, max_nodes)
        assert graph.distance == bfs_distances(graph)

    def test_extensions_in_agent_order(self, r1_space, r1_t5_space, nack_space, ping_space):
        # translate reads a step's moves off its extensions as they stand,
        # so each witness lists its extending agents in increasing order;
        # the rings step on several agents at once
        spaces = [r1_space, r1_t5_space, nack_space, ping_space]
        spaces += [relay_space(k) for k in range(2, 5)] + [ring_space(n) for n in range(3, 7)]
        several = 0
        for space in spaces:
            several += extension_agents_in_order(step_graph(space, space.node_count()))
        assert several

    def test_witness_map_onto_a_conflicting_pair(self, cold_cache):
        # from {s1:1, s3:1} the map s1 -> s2 moves the +u prefix onto s2,
        # which conflicts with s3: that base and every growth of it must be
        # refused, though the grown strand itself conflicts with nothing
        space = StrandSpace.of(
            [
                Strand("s1", (positive("u"), positive("v"))),
                Strand("s2", (positive("u"), negative("v"))),
                Strand("s3", (positive("w"),)),
            ],
            ["a"],
            {"s1": "a", "s2": "a", "s3": "a"},
            conflicts=[("s2", "s3")],
        )
        graph = step_graph(space, space.node_count())
        assert len(graph.successors) == 10
        assert graph.successors == pairwise_step_graph(space, space.node_count())

    def test_scaling_counts(self, cold_cache):
        # bundles, edges (the sum of successor counts) and budget ticks of
        # cold step graphs of relays and rings; on these spaces every
        # candidate is a distinct successor, so edges equal ticks
        expected = {
            ("relay", 2): (25, 105),
            ("relay", 3): (125, 931),
            ("relay", 4): (625, 7_889),
            ("relay", 5): (3_125, 64_827),
            ("ring", 3): (18, 80),
            ("ring", 4): (47, 343),
            ("ring", 5): (123, 1_475),
            ("ring", 6): (322, 6_346),
        }
        make = {"relay": relay_space, "ring": ring_space}
        for (family, size), (bundles, edges) in expected.items():
            space = make[family](size)
            budget = StateBudget()
            graph = step_graph(space, space.node_count(), budget)
            counts = (len(graph.successors), sum(len(s) for s in graph.successors.values()))
            assert counts == (bundles, edges), (family, size)
            assert budget.used == edges, (family, size)

    def test_each_bundle_is_one_object(self, nack_space, cold_cache):
        graph = step_graph(nack_space, 6)
        shared = {b: b for b in graph.successors}
        for succ in graph.successors.values():
            for b2, _ in succ:
                assert shared[b2] is b2
        assert graph.distance == bfs_distances(graph)

    def test_negative_max_nodes(self, ping_space):
        space = ping_space
        with pytest.raises(InputError):
            step_graph(space, -1)
        with pytest.raises(InputError):
            translate(space, 2, -1)


class TestChainEnumeration:
    def test_horizon_zero(self, r1_space):
        # [TRIVIAL]
        chains = enumerate_chain_prefixes(r1_space, 0, 8)
        assert len(chains) == 1
        assert chains[0].bundles == (EMPTY_BUNDLE,)

    def test_exchange_reachable_in_four_steps(self, r1_space):
        # [DERIVED] a chain of four single extensions ends in the full exchange
        chain = r1_exchange_chain(r1_space)
        final = chain.final()
        chains = enumerate_chain_prefixes(r1_space, 4, 8)
        assert any(c.final() == final for c in chains)

    def test_conflicts_respected(self, r1_t5_space):
        # [DERIVED] no chain activates two conflicting agent-2 strands
        chains = enumerate_chain_prefixes(r1_t5_space, 3, 6)
        for chain in chains:
            for bundle in chain.bundles:
                active = set(bundle.active_strands())
                u_side = {s for s in active if s.startswith("2__sent-u")}
                x_side = {s for s in active if s.startswith("2__sent-x")}
                assert not (u_side and x_side)

    def test_per_step_growth_bounds(self, nack_space):
        space = nack_space
        for chain in enumerate_chain_prefixes(space, 3, 6):
            for m in range(len(chain.witnesses)):
                for agent in space.agents:
                    before = hist(chain, agent, m)
                    after = hist(chain, agent, m + 1)
                    assert len(after) - len(before) in (0, 1)


class TestHistAndRun:
    def test_hist_at_zero(self, r1_space):
        # [TRIVIAL]
        chain = r1_exchange_chain(r1_space)
        assert hist(chain, "1", 0) == ()

    def test_exchange_histories(self, r1_space):
        # [PAPER] agent 2 ends with sent(u), recv(v); agent 3 stays empty
        chain = r1_exchange_chain(r1_space)
        assert hist(chain, "2", 4) == (sent("u"), recv("v"))
        assert hist(chain, "3", 4) == ()

    def test_hist_bounds(self, r1_space):
        chain = r1_exchange_chain(r1_space)
        with pytest.raises(InputError):
            hist(chain, "2", 5)
        with pytest.raises(InputError):
            hist(chain, "ghost", 0)

    def test_stuttering_run(self, ping_space):
        # [TRIVIAL] a stutter-only chain yields identical empty states
        space = ping_space
        chain = build_chain(space, [EMPTY_BUNDLE] * 4)
        run = run_from_chain(chain)
        assert len(run.states) == 4
        assert len(set(run.states)) == 1

    def test_anomalous_interleaving(self, nack_space):
        # [PAPER] mixing the two same-agent strands yields the history
        # recv(u), sent(ack), sent(nack)
        space = nack_space
        b1 = Bundle.of({"s1": 1})
        b2 = Bundle.of({"s1": 1, "s2a": 1}, [(Node("s1", 1), Node("s2a", 1))])
        b3 = Bundle.of({"s1": 1, "s2a": 2}, [(Node("s1", 1), Node("s2a", 1))])
        b4 = Bundle.of(
            {"s1": 1, "s2a": 2, "s2b": 1}, [(Node("s1", 1), Node("s2a", 1))]
        )
        chain = build_chain(space, [EMPTY_BUNDLE, b1, b2, b3, b4])
        run = run_from_chain(chain)
        assert run.final().history("2") == (recv("u"), sent("ack"), sent("nack"))


class TestTranslate:
    def test_horizon_zero(self, ping_space):
        # [TRIVIAL]
        runs = translate(ping_space, 0, 2)
        assert len(runs) == 1

    def test_four_event_history_reachable_naturally(self, r1_space):
        # [PAPER] the natural relay space lets agent 2 interleave both pairs
        runs = translate(r1_space, 8, 8)
        target = (sent("u"), recv("v"), sent("x"), recv("y"))
        assert any(run.final().history("2") == target for run in runs)

    def test_conflicts_block_four_events(self, r1_t5_space):
        # [DERIVED] with conflicts, agent 2 never reaches four events
        runs = translate(r1_t5_space, 8, 12)
        assert all(
            len(g.history("2")) <= 2 for run in runs for g in run.states
        )

    def test_translated_runs_satisfy_mp(self, nack_space):
        # the computational core of the strand-system theorem
        space = nack_space
        for run in translate(space, 5, 6):
            assert check_mp(space.messages(), space.agents, run).ok

    def test_translate_agrees_with_chain_enumeration(
        self, nack_space, r1_space, r1_t5_space
    ):
        # the explorer against reading off every chain, conflicts included
        for space in (nack_space, r1_space, r1_t5_space):
            n = space.node_count()
            via_chains = {
                run_from_chain(c) for c in enumerate_chain_prefixes(space, 3, n)
            }
            assert translate(space, 3, n) == frozenset(via_chains)


class TestLemmaBounds:
    def test_height_at_most_twice_distance(self, r1_space, nack_space):
        for space in (r1_space, nack_space):
            dist = step_graph(space, 8).distance
            for bundle, d in dist.items():
                assert bundle_height(space, bundle) <= 2 * d

    def test_identity_reachability_within_node_count(self, nack_space):
        ident = nack_space.with_identity_assignment()
        dist = step_graph(ident, 6).distance
        for bundle in enumerate_bundles(ident, 6):
            assert bundle in dist
            assert dist[bundle] <= bundle.node_count()
