from __future__ import annotations

from itertools import combinations

import pytest

from strandlab.checks import theorem_5, theorem_7
from strandlab.constructions import (
    extended_space_from_system,
    monotone_components,
    space_from_monotone,
)
from strandlab.core import negative, positive, recv, sent
from strandlab.errors import InputError
from strandlab.protocols import JointProtocol, MonotoneSpec, UnionSpec
from strandlab.systems import HistorySet

from conftest import raised_problems


class TestExtendedSpaceFromSystem:
    def test_all_empty_histories(self):
        # [TRIVIAL] nothing to realize: no strands, no conflicts
        space = extended_space_from_system(HistorySet.of({"a": [()], "b": [()]}))
        assert space.strands == ()
        assert space.conflicts == frozenset()

    def test_single_history(self):
        space = extended_space_from_system(
            HistorySet.of({"a": [(), (sent("u"),)]})
        )
        assert len(space.strands) == 1
        strand = space.strands[0]
        assert strand.trace == (positive("u"),)
        assert space.assignment == ((strand.id, "a"),)
        assert space.conflicts == frozenset()

    def test_relay_system_shape(self, r1_system):
        # [PAPER] agents 1 and 3 contribute two strands each, agent 2 four;
        # agent 2's strands are pairwise conflicting
        space = extended_space_from_system(r1_system)
        by_agent = {
            a: sorted(s for s, b in space.assignment if b == a)
            for a in space.agents
        }
        assert [len(by_agent[a]) for a in ("1", "2", "3")] == [2, 4, 2]
        expected = {
            (min(x, y), max(x, y)) for x, y in combinations(by_agent["2"], 2)
        }
        agent2_pairs = {p for p in space.conflicts if p[0].startswith("2__")}
        assert agent2_pairs == expected

    def test_outputs_are_well_formed(self, r1_system, nack_system):
        # the space is well formed, or building it would have raised; its
        # conflict pairs each join two strands of one agent
        for hs in (r1_system, nack_system):
            space = extended_space_from_system(hs)
            agent = dict(space.assignment)
            assert space.conflicts
            assert all(agent[a] == agent[b] for a, b in space.conflicts)

    def test_non_prefix_closed_input_rejected(self):
        # such a history set cannot be built, so it never reaches the
        # construction
        assert raised_problems(lambda: HistorySet.of({"a": [(), (sent("u"), sent("v"))]})) == (
            "history set for agent a lacks a prefix of ['sent u', 'sent v']",
        )

    def test_underscored_names_give_distinct_ids(self):
        # the one-event history "sent x_sent-y" and the two-event history
        # "sent x", "sent y" used to share the id a__sent-x_sent-y
        hs = HistorySet.of({
            "a": [(), (sent("x_sent-y"),), (sent("x"),), (sent("x"), sent("y"))],
            "b": [(), (recv("x_sent-y"),), (recv("y"),)],
        })
        ids = [s.id for s in extended_space_from_system(hs).strands]
        assert "a__sent-x_~sent-y" in ids and "a__sent-x_sent-y" in ids
        result = theorem_5(hs)
        assert result.ok
        assert "56 translated vs 56 generated run prefixes" in result.lines


class TestMonotoneComponents:
    def test_single_and_union(self):
        m1 = MonotoneSpec((sent("u"),))
        m2 = MonotoneSpec((recv("u"),))
        assert monotone_components(m1) == [m1]
        assert monotone_components(UnionSpec((m1, UnionSpec((m2,))))) == [m1, m2]

    def test_table_rejected(self, nack_protocol):
        with pytest.raises(InputError):
            monotone_components(nack_protocol.spec("2"))


class TestSpaceFromMonotone:
    def test_single_sender(self):
        jp = JointProtocol.of({"a": MonotoneSpec((sent("u"),))}, ["u"])
        space = space_from_monotone(jp)
        traces = {s.id: s.trace for s in space.strands}
        assert traces == {
            "a__seq1": (positive("u"),),
            "a__recv-u": (negative("u"),),
        }

    def test_empty_protocol_gives_receive_strands_only(self):
        jp = JointProtocol.of({"a": MonotoneSpec(())}, ["u", "v"])
        space = space_from_monotone(jp)
        assert sorted(s.id for s in space.strands) == ["a__recv-u", "a__recv-v"]

    def test_three_message_exchange(self, u1u2u3_protocol):
        # [PAPER] each agent gets its full sequence plus one receive strand
        # per message
        space = space_from_monotone(u1u2u3_protocol)
        traces = {s.id: s.trace for s in space.strands}
        assert traces["1__seq1"] == (
            positive("u1"), negative("u2"), positive("u3")
        )
        assert traces["2__seq1"] == (negative("u1"), positive("u2"))
        recv_ids = [sid for sid in traces if "__recv-" in sid]
        assert len(recv_ids) == 6  # 2 agents x 3 messages

    def test_underscored_names_give_distinct_ids(self):
        # agent p's receive strand for message q__seq1 and agent
        # p__recv-q's send strand used to share the id p__recv-q__seq1
        jp = JointProtocol.of(
            {"p": MonotoneSpec(()), "p__recv-q": MonotoneSpec((sent("q__seq1"),))},
            ["q__seq1"],
        )
        assert sorted(s.id for s in space_from_monotone(jp).strands) == [
            "p__recv-q_~_~seq1", "p_~_~recv-q__recv-q_~_~seq1", "p_~_~recv-q__seq1",
        ]
        result = theorem_7(jp, horizon=2)
        assert result.ok
        assert "7 translated vs 7 protocol run prefixes" in result.lines

    def test_non_monotone_protocol_rejected(self, nack_protocol):
        with pytest.raises(InputError):
            space_from_monotone(nack_protocol)
