from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandlab.core import GlobalState, Strand, StrandSpace, positive, recv, sent
from strandlab.errors import InputError
from conftest import brute_force_runs, raised_problems, run_sets
from strandlab.systems import (
    MP2_LITERAL,
    MP2_STRONG,
    HistorySet,
    RunAutomaton,
    RunPrefix,
    check_history_preserving,
    check_mp,
    extract_histories,
    generate_system,
    mp_violations,
    systems_equal,
)

AGENTS = ("a", "b")


def run_of(*rounds: dict) -> RunPrefix:
    """Build a run prefix from per-round single-event extensions."""
    states = [GlobalState.empty(AGENTS)]
    for events in rounds:
        states.append(states[-1].extend(events))
    return RunPrefix.of(states)


class TestCheckMP:
    def test_valid_exchange(self):
        # [PAPER] send then receive of the same message is a valid run
        run = run_of({"a": sent("u")}, {"b": recv("u")})
        assert check_mp(["u"], AGENTS, run).ok

    def test_same_round_delivery(self):
        # [DERIVED] a send and its receive may share a round
        run = run_of({"a": sent("u"), "b": recv("u")})
        assert check_mp(["u"], AGENTS, run).ok

    def test_orphan_receive_fails_mp2(self):
        run = run_of({"b": recv("u")})
        report = check_mp(["u"], AGENTS, run)
        assert report.mp2 is not None and report.mp1 is None and report.mp3 is None

    def test_receive_before_send_fails_mp2(self):
        run = run_of({"b": recv("u")}, {"a": sent("u")})
        assert check_mp(["u"], AGENTS, run).mp2 is not None

    def test_unknown_message_fails_mp1(self):
        run = run_of({"a": sent("z")})
        report = check_mp(["u"], AGENTS, run)
        assert report.mp1 is not None

    def test_shrinking_history_fails_mp3(self):
        g0 = GlobalState.empty(AGENTS)
        g1 = g0.extend({"a": sent("u")})
        run = RunPrefix.of([g0, g1, g0])
        assert check_mp(["u"], AGENTS, run).mp3 is not None

    def test_nonempty_start_fails_mp3(self):
        g = GlobalState.empty(AGENTS).extend({"a": sent("u")})
        run = RunPrefix.of([g])
        assert check_mp(["u"], AGENTS, run).mp3 is not None

    def test_strong_vs_literal_divergence(self):
        # one send justifying two receives: literal yes, strong no
        agents = ("a", "b", "c")
        g0 = GlobalState.empty(agents)
        g1 = g0.extend({"a": sent("u")})
        g2 = g1.extend({"b": recv("u"), "c": recv("u")})
        run = RunPrefix.of([g0, g1, g2])
        assert check_mp(["u"], agents, run, mp2=MP2_STRONG).mp2 is not None
        assert check_mp(["u"], agents, run, mp2=MP2_LITERAL).ok

    def test_unknown_mode_rejected(self):
        run = run_of()
        with pytest.raises(InputError):
            check_mp(["u"], AGENTS, run, mp2="weird")


class TestMPViolations:
    """`mp_violations` decides MP1 and MP2 once per distinct state and MP3
    once per distinct round; the set it gives is that of `check_mp`."""

    @settings(max_examples=100, deadline=None)
    @given(run_sets(), st.sets(st.sampled_from("uv")), st.booleans())
    def test_drawn_sets_match_check_mp(self, drawn, universe, declare_a_b):
        agents, horizon, runs = drawn
        if declare_a_b:  # states over other agent sets then fail MP1
            agents = AGENTS
        expected = {r for r in runs if not check_mp(universe, agents, r).ok}
        assert set(mp_violations(universe, RunAutomaton.of(runs, agents, horizon))) == expected

    def test_initial_state_of_one_run_is_a_later_state_of_another(self):
        # the state passes MP1 and MP2 wherever it occurs, but only at
        # time 0 does its not being empty fail a run
        later = GlobalState.of({"a": (sent("u"),), "b": ()})
        starts_there = RunPrefix.of([later] * 3)
        passes_through = run_of({"a": sent("u")}, {})
        assert passes_through.states[1] == later
        runs = RunAutomaton.of([starts_there, passes_through], AGENTS, 2)
        assert set(mp_violations(["u"], runs)) == {starts_there}


class TestGenerateSystem:
    def test_trivial_system(self):
        # [TRIVIAL] empty histories only: the single stuttering run
        hs = HistorySet.of({"a": [()], "b": [()]})
        runs = generate_system(hs, 3)
        assert len(runs) == 1
        assert all(g == GlobalState.empty(AGENTS) for g in next(iter(runs)).states)

    def test_horizon_zero(self, r1_system):
        runs = generate_system(r1_system, 0)
        assert len(runs) == 1

    def test_prefix_validation(self):
        # every problem, so nothing to generate from
        assert raised_problems(lambda: HistorySet.of({"a": [(sent("u"), sent("v"))]})) == (
            "history set for agent a lacks the empty history",
            "history set for agent a lacks a prefix of ['sent u', 'sent v']",
        )

    def test_relay_histories_capped_at_two_events(self, r1_system):
        # [PAPER] agent 2's admissible histories stop at two events
        runs = generate_system(r1_system, 6)
        assert all(
            len(g.history("2")) <= 2 for run in runs for g in run.states
        )
        target = {(sent("u"), recv("v")), (sent("x"), recv("y"))}
        finals = {run.final().history("2") for run in runs}
        assert target <= finals

    def test_all_generated_runs_pass_mp(self, nack_system):
        hs = nack_system
        for run in generate_system(hs, 4):
            assert check_mp(hs.messages(), hs.agents, run).ok

    def test_anomaly_absent_from_nack_system(self, nack_system):
        # [PAPER] recv(u), sent(ack), sent(nack) is not an admissible history
        runs = generate_system(nack_system, 6)
        anomaly = (recv("u"), sent("ack"), sent("nack"))
        assert all(
            g.history("2") != anomaly for run in runs for g in run.states
        )

    def test_stuttering_insertion_closure(self, nack_system):
        # inserting a stutter round keeps prefixes inside the longer system
        short = generate_system(nack_system, 3)
        longer = generate_system(nack_system, 4)
        rng = random.Random(7)
        for run in rng.sample(sorted(short), min(10, len(short))):
            at = rng.randrange(len(run.states))
            padded = RunPrefix.of(
                run.states[: at + 1] + (run.states[at],) + run.states[at + 1 :]
            )
            assert padded in longer

    @pytest.mark.parametrize("name", ["r1_system", "nack_system"])
    def test_matches_brute_force(self, request, name):
        # the explorer against the slow reference: all histories in hs, MP1-MP3
        hs = request.getfixturevalue(name)
        admitted = {a: set(hs.histories(a)) for a in hs.agents}

        def admissible(g, g2):
            return all(h in admitted[a] for a, h in g2.items())

        for horizon in range(5):
            expected = brute_force_runs(hs.agents, hs.messages(), horizon, admissible)
            assert generate_system(hs, horizon) == expected


class TestExtractHistories:
    def test_roundtrip_through_generation(self, r1_system):
        # generated runs realize exactly the admissible histories
        runs = generate_system(r1_system, 6)
        assert extract_histories(runs) == r1_system

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            extract_histories(RunAutomaton.of([], AGENTS, 0))


class TestSystemsEqual:
    def test_equal_sets(self, nack_system):
        a = generate_system(nack_system, 3)
        b = generate_system(nack_system, 3)
        report = systems_equal(a, b)
        assert report.equal and report.witness() is None

    def test_unequal_sets_have_witness(self, nack_system):
        a = generate_system(nack_system, 3)
        b = RunAutomaton.of(sorted(a)[:-1], nack_system.agents, 3)
        report = systems_equal(a, b)
        assert not report.equal
        assert report.witness() in a and report.witness() not in b

    def test_horizon_mismatch_rejected(self, nack_system):
        a = generate_system(nack_system, 2)
        b = generate_system(nack_system, 3)
        with pytest.raises(InputError, match=r"^horizon mismatch: \[2, 3\]$"):
            systems_equal(a, b)

    def test_horizon_mismatch_of_empty_sets_rejected(self):
        # an empty set keeps its horizon, so two of them still differ
        a, b = RunAutomaton.of([], AGENTS, 3), RunAutomaton.of([], AGENTS, 2)
        with pytest.raises(InputError, match=r"^horizon mismatch: \[2, 3\]$"):
            systems_equal(a, b)
        assert systems_equal(a, RunAutomaton.of([], AGENTS, 3)).equal

    def test_agent_mismatch_rejected(self):
        # run sets over other agents are not compared, empty or not
        def runs(agent: str, held: bool) -> RunAutomaton:
            run = RunPrefix.of([GlobalState.empty([agent])] * 2)
            return RunAutomaton.of([run] if held else [], [agent], 1)

        for held in (False, True):
            with pytest.raises(InputError, match=r"^agent mismatch: first \['a'\], second \['b'\]$"):
                systems_equal(runs("a", held), runs("b", held))


class TestHistoryPreserving:
    def test_single_send_space_preserves(self):
        space = StrandSpace.of(
            [Strand("s", (positive("u"),))], ["a"], {"s": "a"}
        )
        hs = HistorySet.of({"a": [(), (sent("u"),)]})
        runs = generate_system(hs, 2)
        report = check_history_preserving(space, runs, max_nodes=1)
        assert report.ok

    def test_runs_of_other_agents_rejected(self):
        space = StrandSpace.of([Strand("s", (positive("u"),))], ["a"], {"s": "a"})
        runs = RunAutomaton.of([], ["a", "zz"], 1)
        with pytest.raises(InputError, match=r"^agent mismatch: space \['a'\], runs \['a', 'zz'\]$"):
            check_history_preserving(space, runs, max_nodes=1)

    def test_relay_clause2_fails_with_interleaving(self, r1_space, r1_system):
        # [PAPER] bundles allow agent 2 four events; the system does not
        runs = generate_system(r1_system, 8)
        report = check_history_preserving(r1_space, runs, max_nodes=8)
        assert not report.clause1_failures
        assert report.clause2_failures
        assert any(
            agent == "2" and len(events) == 4
            for agent, _, events in report.clause2_failures
        )
