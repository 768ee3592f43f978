from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_force_runs, raised_problems
from strandlab.core import GlobalState, recv, sent
from strandlab.errors import InputError
from strandlab.protocols import (
    NOOP,
    Action,
    JointProtocol,
    MonotoneSpec,
    TableSpec,
    UnionSpec,
    all_histories,
    eval_protocol,
    generate_runs,
    is_monotone_realization,
    send,
    spec_messages,
    tau_step,
)
from strandlab.systems import check_mp

U123 = MonotoneSpec((sent("u1"), recv("u2"), sent("u3")))


def monotone_oracle_u123(h):
    """Independent narration of the u1/u2/u3 sender's behaviour."""
    from collections import Counter

    have = Counter(h)
    if have[sent("u1")] < 1:
        return frozenset({send("u1")})
    if have[recv("u2")] < 1:
        return frozenset({NOOP})
    if have[sent("u3")] < 1:
        return frozenset({send("u3")})
    return frozenset({NOOP})


events_u123 = st.sampled_from(
    [sent(u) for u in ("u1", "u2", "u3")] + [recv(u) for u in ("u1", "u2", "u3")]
)


class TestActions:
    def test_rendering(self):
        assert str(NOOP) == "no-op"
        assert str(send("u")) == "send u"

    def test_bad_actions_rejected(self):
        with pytest.raises(InputError):
            Action("send")
        with pytest.raises(InputError):
            Action("no-op", "u")
        with pytest.raises(InputError):
            Action("jump", "u")


class TestMonotoneEval:
    def test_narration_examples(self):
        # [PAPER] the sender starts by sending u1
        assert eval_protocol(U123, ()) == frozenset({send("u1")})
        # [PAPER] then waits for u2
        assert eval_protocol(U123, (sent("u1"),)) == frozenset({NOOP})
        # [PAPER] and answers u2 with u3
        assert eval_protocol(U123, (sent("u1"), recv("u2"))) == frozenset(
            {send("u3")}
        )

    def test_order_insensitive(self):
        assert eval_protocol(U123, (recv("u2"), sent("u1"))) == frozenset(
            {send("u3")}
        )

    def test_multiplicity_matters(self):
        # a sequence listing the same event twice needs two occurrences
        p = MonotoneSpec((sent("u"), sent("u")))
        assert eval_protocol(p, (sent("u"),)) == frozenset({send("u")})
        assert eval_protocol(p, (sent("u"), sent("u"))) == frozenset({NOOP})

    def test_matches_oracle_on_all_short_histories(self):
        # [DERIVED] exhaustive comparison against the narration oracle
        for h in all_histories(["u1", "u2", "u3"], 3):
            assert eval_protocol(U123, h) == monotone_oracle_u123(h)

    @given(st.lists(events_u123, max_size=6), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, events, rng):
        h = tuple(events)
        shuffled = list(h)
        rng.shuffle(shuffled)
        assert eval_protocol(U123, h) == eval_protocol(U123, tuple(shuffled))


class TestUnionAndTable:
    def test_union_is_pointwise(self):
        members = [U123, MonotoneSpec((sent("u2"),))]
        union = UnionSpec(tuple(members))
        for h in all_histories(["u1", "u2", "u3"], 2):
            expected = frozenset().union(*(eval_protocol(m, h) for m in members))
            assert eval_protocol(union, h) == expected

    def test_union_of_random_decompositions(self):
        rng = random.Random(11)
        pool = [
            MonotoneSpec(tuple(rng.choices(
                [sent("u1"), recv("u2"), sent("u3")], k=rng.randrange(1, 4)
            )))
            for _ in range(6)
        ]
        union = UnionSpec(tuple(pool))
        for h in all_histories(["u1", "u2", "u3"], 2):
            expected = frozenset().union(*(eval_protocol(m, h) for m in pool))
            assert eval_protocol(union, h) == expected

    def test_table_entry_and_default(self, nack_protocol):
        p = nack_protocol.spec("2")
        # [PAPER] with nothing heard, agent 2 may jump the gun with nack
        assert eval_protocol(p, ()) == frozenset({send("nack")})
        # [PAPER] after receiving u it acknowledges
        assert eval_protocol(p, (recv("u"),)) == frozenset({send("ack")})
        # unlisted histories fall back to the default
        assert eval_protocol(p, (recv("u"), recv("u"))) == frozenset({NOOP})

    def test_undeclared_messages_are_problems(self, nack_protocol, u1u2u3_protocol):
        # one undeclared message in each place a spec names one, the table
        # nested in a union
        table = TableSpec.of({(recv("w"),): [send("x")]}, default=[send("y")])
        specs = {"a": MonotoneSpec((sent("v"), recv("u"))), "b": UnionSpec((U123, table))}
        assert raised_problems(lambda: JointProtocol.of(specs, ["u", "u1", "u2", "u3"])) == tuple(
            f"undeclared message: {m}" for m in "vwxy"
        )
        assert raised_problems(lambda: JointProtocol.of(specs, "uvwxy123")) == (
            "undeclared message: u1", "undeclared message: u2", "undeclared message: u3",
        )
        JointProtocol.of(specs, ["u", "u1", "u2", "u3", "v", "w", "x", "y"])
        assert spec_messages(specs["b"]) == {"u1", "u2", "u3", "w", "x", "y"}
        for jp in (nack_protocol, u1u2u3_protocol):
            assert JointProtocol(jp.per_agent, jp.messages) == jp

    def test_empty_union_rejected(self):
        with pytest.raises(InputError):
            UnionSpec(())

    def test_empty_table_actions_rejected(self):
        with pytest.raises(InputError):
            TableSpec.of({(): []})


class TestTauStep:
    def test_never_shrinks_and_appends_at_most_one(self, u1u2u3_protocol):
        jp = u1u2u3_protocol
        g = GlobalState.empty(jp.agents)
        for g2 in tau_step(jp, g):
            for a in jp.agents:
                assert len(g2.history(a)) - len(g.history(a)) in (0, 1)

    def test_all_noop_keeps_state(self):
        jp = JointProtocol.of({"a": MonotoneSpec(())}, ["u"])
        g = GlobalState.empty(("a",))
        assert g in tau_step(jp, g)

    def test_same_round_delivery(self, u1u2u3_protocol):
        # [DERIVED] u1 can be sent and received in the same round
        jp = u1u2u3_protocol
        g = GlobalState.empty(jp.agents)
        delivered = GlobalState.of({"1": (sent("u1"),), "2": (recv("u1"),)})
        assert delivered in tau_step(jp, g)

    def test_orphan_receive_excluded(self, u1u2u3_protocol):
        jp = u1u2u3_protocol
        g = GlobalState.empty(jp.agents)
        orphan = GlobalState.of({"1": (), "2": (recv("u1"),)})
        assert orphan not in tau_step(jp, g)

    def test_nack_branching_round(self, nack_protocol):
        # [PAPER] agent 2 may open with nack, or wait while agent 1 sends u
        jp = nack_protocol
        g = GlobalState.empty(jp.agents)
        successors = tau_step(jp, g)
        assert GlobalState.of({"1": (), "2": (sent("nack"),)}) in successors
        assert GlobalState.of({"1": (sent("u"),), "2": ()}) in successors


class TestGenerateRuns:
    def test_horizon_zero(self, nack_protocol):
        # [TRIVIAL]
        assert len(generate_runs(nack_protocol, 0)) == 1

    @pytest.mark.parametrize("name", ["nack_protocol", "u1u2u3_protocol"])
    def test_matches_brute_force(self, request, name):
        # the explorer against the slow reference: every appended send is
        # one the protocol allows, receives are free, MP1-MP3 hold
        jp = request.getfixturevalue(name)

        def admissible(g, g2):
            return all(
                h2 == h
                or h2[-1].kind == "recv"
                or send(h2[-1].message) in eval_protocol(jp.spec(a), h)
                for (a, h), (_, h2) in zip(g.items(), g2.items())
            )

        for horizon in range(5):
            expected = brute_force_runs(jp.agents, jp.messages, horizon, admissible)
            assert generate_runs(jp, horizon) == expected

    def test_runs_satisfy_mp(self, nack_protocol):
        jp = nack_protocol
        for run in generate_runs(jp, 3):
            assert check_mp(jp.messages, jp.agents, run).ok

    def test_nack_reachable_histories(self, nack_protocol):
        # [PAPER] both intended agent-2 completions occur ...
        runs = generate_runs(nack_protocol, 6)
        finals = {run.final().history("2") for run in runs}
        assert (sent("nack"), recv("u"), sent("ack")) in finals
        assert (recv("u"), sent("ack")) in finals
        # [PAPER] ... but never the bundle-only interleaving
        anomaly = (recv("u"), sent("ack"), sent("nack"))
        assert all(
            g.history("2") != anomaly for run in runs for g in run.states
        )

    def test_choice_protocol_commits(self, r1_choice_protocol):
        # [PAPER] agent 2 picks one exchange and never reaches four events
        runs = generate_runs(r1_choice_protocol, 6)
        for run in runs:
            assert len(run.final().history("2")) <= 2


class TestMonotoneRealization:
    def test_monotone_is_its_own_realization(self):
        table = TableSpec.of(
            {
                h: eval_protocol(U123, h)
                for h in all_histories(["u1", "u2", "u3"], 2)
            }
        )
        assert is_monotone_realization(U123.events, table, 2)

    def test_wrong_candidate_rejected(self):
        table = TableSpec.of(
            {
                h: eval_protocol(U123, h)
                for h in all_histories(["u1", "u2", "u3"], 2)
            }
        )
        assert not is_monotone_realization((sent("u2"),), table, 2)

    def test_nack_table_is_not_monotone(self, nack_protocol):
        # [PAPER] no fixed event sequence narrates the nack behaviour:
        # try every candidate sequence of length at most 3
        from itertools import product as iproduct

        p = nack_protocol.spec("2")
        alphabet = [
            e for u in ("u", "ack", "nack") for e in (sent(u), recv(u))
        ]
        candidates = [
            c for n in range(4) for c in iproduct(alphabet, repeat=n)
        ]
        assert not any(
            is_monotone_realization(c, p, 3, ["u", "ack", "nack"])
            for c in candidates
        )
