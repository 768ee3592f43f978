"""Run sets as automata, checked against the materialized sets they stand for.

Every count, order, difference and witness read off a `RunAutomaton` is
compared with the same quantity computed from a plain frozenset of
`RunPrefix` values.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strandlab
from strandlab.chains import translate
from strandlab.checks import _describe_state, theorem_3
from strandlab.constructions import extended_space_from_system, space_from_monotone
from strandlab.core import GlobalState
from strandlab.errors import InputError
from strandlab.protocols import generate_runs
from strandlab.systems import RunAutomaton, RunPrefix, generate_system, systems_equal

from conftest import prefix_tree_edges, run_sets, scrambled

SRC = pathlib.Path(strandlab.__file__).resolve().parents[1]


def reference_equal(runs_a, runs_b):
    """What `systems_equal` must report, from frozenset operations."""
    sa, sb = frozenset(runs_a), frozenset(runs_b)
    return (
        sa == sb,
        min(sa - sb, default=None),
        min(sb - sa, default=None),
        len(sa - sb),
        len(sb - sa),
    )


def reported(runs_a, runs_b):
    """What `systems_equal` reports on two automata."""
    eq = systems_equal(runs_a, runs_b)
    return (
        eq.equal,
        eq.only_in_a.least(),
        eq.only_in_b.least(),
        len(eq.only_in_a),
        len(eq.only_in_b),
    )


@pytest.fixture(scope="session")
def r1_theorem_3_pair(r1_space, r1_system):
    """Theorem 3's run sets at horizon 8, as automata and materialized."""
    translated = translate(r1_space, 8, 8)
    system = generate_system(r1_system, 8)
    return translated, system, frozenset(translated), frozenset(system)


class TestRunAutomaton:
    @pytest.mark.parametrize("source", ["r1 translation", "nack protocol", "u1u2u3 protocol"])
    def test_len_and_order_match_materialized(
        self, source, r1_space, nack_protocol, u1u2u3_protocol
    ):
        make = {
            "r1 translation": lambda h: translate(r1_space, h, 8),
            "nack protocol": lambda h: generate_runs(nack_protocol, h),
            "u1u2u3 protocol": lambda h: generate_runs(u1u2u3_protocol, h),
        }[source]
        for horizon in range(9):
            runs = make(horizon)
            listed = list(runs)
            assert len(runs) == len(frozenset(listed)) == len(listed)
            assert listed == sorted(listed)
            assert all(r.horizon == horizon for r in listed)

    def test_membership(self, nack_protocol):
        runs = generate_runs(nack_protocol, 4)
        listed = list(runs)
        assert all(r in runs for r in listed)
        # one more stutter, a repeated state in place of the last one, and
        # a non-run are all outside the set
        last = listed[-1]
        assert RunPrefix(last.states + (last.final(),)) not in runs
        assert RunPrefix(last.states[:-1] + (last.states[1],)) not in runs
        assert "not a run" not in runs

    def test_prefix_tree_of_a_plain_set(self, nack_system):
        runs = frozenset(generate_system(nack_system, 4))
        tree = RunAutomaton.of(runs, nack_system.agents, 4)
        assert (tree.agents, tree.horizon) == (nack_system.agents, 4)
        assert len(tree) == len(runs)
        assert list(tree) == sorted(runs)
        assert tree.occurring_states() == {g for r in runs for g in r.states}

    def test_empty_set_keeps_agents_and_horizon(self):
        empty = RunAutomaton.of([], ["b", "a", "b"], 3)
        assert (empty.agents, empty.horizon, len(empty)) == (("a", "b"), 3, 0)
        assert empty.least() is None and not empty.occurring_states()
        for derived in (empty.restrict(), systems_equal(empty, empty).only_in_a):
            assert (derived.agents, derived.horizon, len(derived)) == (("a", "b"), 3, 0)

    def test_run_of_another_horizon_rejected(self):
        run = RunPrefix.of([GlobalState.empty(["a"])] * 3)
        with pytest.raises(InputError, match=r"horizon mismatch: \[1, 2\]"):
            RunAutomaton.of([run], ["a"], 1)

    def test_restrict_matches_filtering(self, nack_protocol):
        runs = generate_runs(nack_protocol, 5)

        def state_ok(d, g):
            return len(g.history("1")) < 2

        def step_ok(g, g2):
            return g2.history("2") == g.history("2") or g.history("1") != ()

        kept = runs.restrict(state_ok, step_ok)
        expected = [
            r
            for r in runs
            if all(state_ok(d, g) for d, g in enumerate(r.states))
            and all(step_ok(g, g2) for g, g2 in zip(r.states, r.states[1:]))
        ]
        assert 0 < len(expected) < len(runs)
        assert list(kept) == expected


def assert_is_the_set(automaton, runs, outside):
    """Every reading of ``automaton`` agrees with the plain set ``runs``;
    ``outside`` are runs of its horizon that must not be members."""
    assert set(automaton) == runs
    assert len(automaton) == len(runs)
    assert automaton.least() == min(runs, default=None)
    assert automaton.occurring_states() == {g for r in runs for g in r.states}
    assert all(r in automaton for r in runs)
    assert not any(r in automaton for r in outside)
    # a longer run, and a plain tuple equal to a member, are not members
    assert not any(RunPrefix(r.states + (r.final(),)) in automaton for r in runs)
    assert not any((r.states,) in automaton for r in runs)


@settings(max_examples=60, deadline=None)
@given(run_sets(max_runs=8), st.data())
def test_automata_match_plain_sets(drawn, data):
    """The prefix tree of a drawn set, and the difference automaton of two
    overlapping sets, whose last level has nodes that accept no run."""
    agents, horizon, runs = drawn
    side = st.sampled_from(["a", "b", "both"])
    sides = {r: data.draw(side) for r in sorted(runs)}
    a = frozenset(r for r, s in sides.items() if s != "b")
    b = frozenset(r for r, s in sides.items() if s != "a")
    tree_a, tree_b = (RunAutomaton.of(s, agents, horizon) for s in (a, b))
    assert_is_the_set(RunAutomaton.of(runs, agents, horizon), runs, ())
    assert_is_the_set(tree_a, a, runs - a)
    assert_is_the_set(systems_equal(tree_a, tree_b).only_in_a, a - b, b)


@settings(max_examples=100, deadline=None)
@given(run_sets(max_runs=8), st.data())
def test_prefix_tree_of_any_list(drawn, data):
    """Runs inserted in any order, repeated next to themselves or further
    on, each sharing its state objects with the other runs or holding
    equal copies of them, give the prefix tree of the set, one budget
    tick per edge."""
    agents, horizon, runs = drawn
    shared: dict = {}
    listed = [
        RunPrefix(tuple(shared.setdefault(g, g) for g in r.states))
        if data.draw(st.booleans(), label="shares its states")
        else RunPrefix(tuple(GlobalState(g.locals) for g in r.states))
        for r in data.draw(scrambled(sorted(runs)))
    ]
    tree = RunAutomaton.of(listed, agents, horizon)
    assert tree.budget.used == prefix_tree_edges(runs)
    assert_is_the_set(tree, runs, ())


class TestSystemsEqualReference:
    def test_theorem_3_pair(self, r1_theorem_3_pair):
        translated, system, sa, sb = r1_theorem_3_pair
        assert reported(translated, system) == reference_equal(sa, sb)

    def test_theorem_5_pairs(self, r1_system, nack_system):
        for hs in (r1_system, nack_system):
            space = extended_space_from_system(hs)
            translated = translate(space, 5, space.node_count())
            generated = generate_system(hs, 5)
            assert reported(translated, generated) == reference_equal(translated, generated)

    def test_theorem_7_pair(self, u1u2u3_protocol):
        jp = u1u2u3_protocol
        space = space_from_monotone(jp)
        translated = translate(space, 6, space.node_count())
        generated = generate_runs(jp, 6)
        assert reported(translated, generated) == reference_equal(translated, generated)

    def test_nack_anomaly(self, nack_space, nack_protocol):
        naive = translate(nack_space, 6, 6)
        runs = generate_runs(nack_protocol, 6)
        expected = reference_equal(naive, runs)
        assert not expected[0]
        assert reported(naive, runs) == expected
        assert reported(runs, naive) == reference_equal(runs, naive)
        eq = systems_equal(naive, runs)
        assert frozenset(eq.only_in_a) == frozenset(naive) - frozenset(runs)
        assert list(eq.only_in_b) == sorted(frozenset(runs) - frozenset(naive))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_drawn_subsets(self, nack_system, data):
        system = generate_system(nack_system, 3)
        runs = sorted(system)
        subsets = st.lists(st.sampled_from(runs), unique=True, max_size=len(runs))

        def subset():
            drawn = frozenset(data.draw(subsets))
            return drawn, RunAutomaton.of(drawn, nack_system.agents, 3)

        (sub_a, tree_a), (sub_b, tree_b) = subset(), subset()
        assert reported(tree_a, tree_b) == reference_equal(sub_a, sub_b)
        assert reported(system, tree_b) == reference_equal(runs, sub_b)
        eq = systems_equal(tree_a, tree_b)
        assert list(eq.only_in_a) == sorted(sub_a - sub_b)
        assert list(eq.only_in_a.restrict()) == sorted(sub_a - sub_b)
        # a difference automaton accepts only some of its last-level nodes
        sub_c, tree_c = subset()
        assert reported(eq.only_in_a, tree_c) == reference_equal(sub_a - sub_b, sub_c)
        assert reported(tree_c, eq.only_in_a) == reference_equal(sub_c, sub_a - sub_b)
        only_a, only_b = sub_a - sub_b, sub_b - sub_a
        assert eq.witness() == (min(only_a) if only_a else min(only_b, default=None))


def test_theorem_3_witness_is_the_least_four_event_run(r1_space, r1_system, r1_theorem_3_pair):
    _, _, sa, sb = r1_theorem_3_pair
    least = min(
        r for r in sa - sb if any(len(h) == 4 for g in r.states for _, h in g.items())
    )
    result = theorem_3(r1_space, r1_system, max_nodes=8)
    assert result.ok
    assert f"translation adds runs, e.g. {_describe_state(least.final())}" in result.lines


# Two runs of one agent whose histories hold the same two events in both
# orders; the least puts recv v first.
DEMO_STATES = [
    [{"A": []}, {"A": ["recv v"]}, {"A": ["recv v", "sent w"]}],
    [{"A": []}, {"A": ["sent w"]}, {"A": ["sent w", "recv v"]}],
]


def _under_seeds(argv, seeds=("1", "2", "3")) -> list[str]:
    """The stdout of `argv` under each hash seed.  Where a witness was taken
    in set order, two of these seeds printed different ones, both for a set
    of runs and for a set of global states."""
    outputs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
        assert not proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_mp_witness_does_not_depend_on_hash_seed():
    script = (
        "from strandlab.checks import strand_system_property\n"
        "from strandlab.core import GlobalState, Event\n"
        "from strandlab.systems import RunAutomaton, RunPrefix\n"
        f"raw = {DEMO_STATES!r}\n"
        "runs = frozenset(RunPrefix.of(GlobalState.of({a: [Event(*e.split()) for e in h]"
        " for a, h in g.items()}) for g in run) for run in raw)\n"
        "runs = RunAutomaton.of(runs, ['A'], 2)\n"
        "print(strand_system_property(runs, ['v', 'w'], 'demo').render())\n"
    )
    first, *others = _under_seeds([sys.executable, "-c", script])
    assert others == [first] * len(others)
    assert "2 runs violate MP1-MP3, e.g. A: ['recv v', 'sent w']" in first


def test_history_preserving_witness_does_not_depend_on_hash_seed(tmp_path):
    space = {
        "kind": "space",
        "messages": ["v", "w"],
        "agents": ["A"],
        "strands": [{"id": "s", "agent": "A", "trace": ["+w"]}],
    }
    runs = {"kind": "runs", "agents": ["A"], "horizon": 2, "runs": DEMO_STATES}
    (tmp_path / "space.json").write_text(json.dumps(space))
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    argv = [
        sys.executable, "-m", "strandlab.cli", "check", "--history-preserving",
        str(tmp_path / "space.json"), str(tmp_path / "runs.json"),
    ]
    first, *others = _under_seeds(argv)
    assert others == [first] * len(others)
    assert "clause 1: agent A history ['recv v', 'sent w'] matches no bundle" in first

