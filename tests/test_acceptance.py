"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is checked end-to-end against the shipped fixtures, using
independent re-derivations where the property has a cheap oracle.
"""

from __future__ import annotations

import random
from collections import Counter

from strandlab.bundles import Bundle, agent_events, enumerate_bundles
from strandlab.chains import enumerate_chain_prefixes, step_graph, translate
from strandlab.cli import main as cli_main
from strandlab.constructions import extended_space_from_system, space_from_monotone
from strandlab.core import GlobalState, Node, recv, sent
from strandlab.protocols import NOOP, MonotoneSpec, eval_protocol, generate_runs, send
from strandlab.systems import (
    check_history_preserving,
    check_mp,
    extract_histories,
    generate_system,
    systems_equal,
)

from conftest import fixture_path
from reference import all_histories, bundle_height, validate_bundle


def report(num: int, name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {num}: {name}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_bundle_axiom_attribution(r1_space, r1_t5_space):
    space = r1_space
    exchange = Bundle.of(
        {"s12": 2, "s21": 2},
        [(Node("s12", 1), Node("s21", 1)), (Node("s21", 2), Node("s12", 2))],
    )
    ok = validate_bundle(space, exchange).ok

    # drop an edge -> exactly B2
    dropped = Bundle.of(dict(exchange.heights), [(Node("s12", 1), Node("s21", 1))])
    ok = ok and validate_bundle(space, dropped).failed_axioms() == ("B2",)

    # rewire into a causal cycle -> exactly B4
    from strandlab.core import Strand, StrandSpace, negative, positive

    cyc = StrandSpace.identity(
        [
            Strand("e", (negative("b"), positive("a"))),
            Strand("f", (negative("a"), positive("b"))),
        ]
    )
    cyclic = Bundle.of(
        {"e": 2, "f": 2},
        [(Node("e", 2), Node("f", 1)), (Node("f", 2), Node("e", 1))],
    )
    ok = ok and validate_bundle(cyc, cyclic).failed_axioms() == ("B4",)

    # pair two conflicting strands -> exactly B5
    conflicted = Bundle.of({"2__sent-u": 1, "2__sent-x": 1})
    ok = ok and validate_bundle(r1_t5_space, conflicted).failed_axioms() == ("B5",)
    # and the same bundle is fine for every other axiom
    ok = ok and validate_bundle(r1_t5_space.without_conflicts(), conflicted).ok

    report(1, "bundle axioms with exact attribution", ok)


def test_criterion_02_states_and_bundles_correspond(ping_space, r1_space, nack_space):
    ok = True
    for space in (ping_space, r1_space, nack_space):
        ident = space.with_identity_assignment()
        runs = translate(ident, 4, 8)
        states = {g for run in runs for g in run.states}
        # a state and a bundle are message-equivalent when the state is the
        # bundle's image: each state is an image and each image a state
        images = {GlobalState.of(agent_events(ident, b)) for b in enumerate_bundles(ident, 8)}
        ok = ok and states == images
    report(2, "run states and bundles correspond both ways", ok)


def test_criterion_03_chain_height_bound(r1_space, r1_t5_space, nack_space, ping_space):
    ok = True
    for space, max_nodes in (
        (r1_space, 8),
        (r1_t5_space, 8),
        (nack_space, 6),
        (ping_space, 2),
    ):
        for chain in enumerate_chain_prefixes(space, 5, max_nodes):
            n = len(chain.witnesses)
            ok = ok and bundle_height(space, chain.final()) <= 2 * n
    report(3, "chain of length n never exceeds height 2n", ok)


def test_criterion_04_every_bundle_reachable(r1_space, r1_t5_space, nack_space, ping_space):
    ok = True
    for space, max_nodes in (
        (r1_space, 8),
        (r1_t5_space, 8),
        (nack_space, 6),
        (ping_space, 2),
    ):
        ident = space.with_identity_assignment()
        dist = step_graph(ident, max_nodes).distance
        for bundle in enumerate_bundles(ident, max_nodes):
            ok = ok and dist.get(bundle, max_nodes + 1) <= bundle.node_count()
    report(4, "every bundle is the end of a short enough chain", ok)


def test_criterion_05_strand_system_property(
    r1_space, nack_space, ping_space, r1_t5_space,
    nack_protocol, r1_choice_protocol, u1u2u3_protocol,
):
    ok = True
    sources = []
    for space in (r1_space, nack_space, ping_space, r1_t5_space):
        sources.append((space.messages(), space.agents, translate(space, 6, 8)))
    for jp in (nack_protocol, r1_choice_protocol, u1u2u3_protocol):
        sources.append((frozenset(jp.messages), jp.agents, generate_runs(jp, 6)))
    for universe, agents, runs in sources:
        ok = ok and all(check_mp(universe, agents, run).ok for run in runs)
        regenerated = generate_system(extract_histories(runs), 6)
        ok = ok and runs == regenerated
    report(5, "translated and protocol-generated run sets are strand systems", ok)


def test_criterion_06_history_preservation_fails_on_interleaving(r1_space, r1_system):
    runs8 = generate_system(r1_system, 8)
    hp = check_history_preserving(r1_space, runs8, max_nodes=8)
    ok = not hp.clause1_failures
    ok = ok and any(
        agent == "2" and len(events) == 4
        for agent, _, events in hp.clause2_failures
    )
    eq = systems_equal(translate(r1_space, 8, 8), runs8)
    ok = ok and not eq.equal and not eq.only_in_b and bool(eq.only_in_a)
    report(6, "natural relay space strictly outruns the intended system", ok)


def test_criterion_07_system_space_round_trip(r1_system, nack_system):
    ok = True
    for hs in (r1_system, nack_system):
        space = extended_space_from_system(hs)
        translated = translate(space, 5, space.node_count())
        ok = ok and translated == generate_system(hs, 5)
    report(7, "history-set construction round-trips through translation", ok)


def test_criterion_08_monotone_round_trip_and_nack_gap(
    u1u2u3_protocol, nack_protocol, nack_space
):
    jp = u1u2u3_protocol
    space = space_from_monotone(jp)
    ok = translate(space, 6, 8) == generate_runs(jp, 6)

    naive = translate(nack_space, 6, 6)
    eq = systems_equal(naive, generate_runs(nack_protocol, 6))
    anomaly = (recv("u"), sent("ack"), sent("nack"))
    ok = ok and not eq.equal
    ok = ok and any(
        g.history("2") == anomaly for run in eq.only_in_a for g in run.states
    )
    report(8, "monotone protocols round-trip; the nack protocol does not", ok)


def test_criterion_09_monotone_narration_and_permutation_invariance():
    p = MonotoneSpec((sent("u1"), recv("u2"), sent("u3")))

    def oracle(h):
        have = Counter(h)
        if not have[sent("u1")]:
            return frozenset({send("u1")})
        if not have[recv("u2")]:
            return frozenset({NOOP})
        if not have[sent("u3")]:
            return frozenset({send("u3")})
        return frozenset({NOOP})

    ok = all(
        eval_protocol(p, h) == oracle(h)
        for h in all_histories(["u1", "u2", "u3"], 4)
    )

    rng = random.Random(20260823)
    alphabet = [e for u in ("u1", "u2", "u3") for e in (sent(u), recv(u))]
    for _ in range(1000):
        h = tuple(rng.choices(alphabet, k=rng.randrange(0, 7)))
        shuffled = list(h)
        rng.shuffle(shuffled)
        ok = ok and eval_protocol(p, h) == eval_protocol(p, tuple(shuffled))
    report(9, "monotone evaluation matches its narration and ignores order", ok)


def test_criterion_10_enumeration_is_deterministic(tmp_path):
    commands = [
        ("r1_space", ["--bundles"]),
        ("r1_t5_space", ["--bundles"]),
        ("nack_space", ["--chains", "--horizon", "3", "--max-nodes", "6"]),
        ("ping_space", ["--translate", "--horizon", "4", "--max-nodes", "2"]),
        ("r1_system", ["--gen-system", "--horizon", "4"]),
        ("nack_system", ["--gen-system", "--horizon", "4"]),
        ("nack_protocol", ["--run-protocol", "--horizon", "4"]),
        ("r1_choice_protocol", ["--run-protocol", "--horizon", "4"]),
        ("u1u2u3_protocol", ["--run-protocol", "--horizon", "4"]),
    ]
    ok = True
    for i, (fixture, flags) in enumerate(commands):
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{i}_{attempt}.json"
            code = cli_main(
                ["enumerate", str(fixture_path(fixture)), *flags, "--out", str(out)]
            )
            ok = ok and code == 0
            outputs.append(out.read_bytes())
        ok = ok and outputs[0] == outputs[1]
    report(10, "every enumeration command is byte-deterministic", ok)
