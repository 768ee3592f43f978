from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strandlab.bundles import enumerate_bundles
from strandlab.chains import enumerate_chain_prefixes, translate
from strandlab.core import GlobalState, StrandSpace, recv, sent
from strandlab.documents import (
    BundlesDocument,
    ChainsDocument,
    dump_document,
    load_document,
    parse_action,
    parse_document,
    parse_event,
    parse_term,
)
from strandlab.errors import SchemaError
from strandlab.protocols import NOOP, JointProtocol, generate_runs, send
from strandlab.systems import HistorySet, RunAutomaton, RunPrefix, generate_system

from conftest import FILES, FIXTURES, fixture_path, prefix_tree_edges, run_sets, scrambled
from reference import reference_dump, reference_parse_chains, reference_parse_runs


class TestTokens:
    def test_round_trips(self):
        # a token renders as its str
        from strandlab.core import negative, positive

        for term in (positive("u"), negative("ack")):
            assert parse_term(str(term)) == term
        for event in (sent("u"), recv("ack")):
            assert parse_event(str(event)) == event
        for action in (NOOP, send("u")):
            assert parse_action(str(action)) == action

    @pytest.mark.parametrize("bad", ["u", "*u", "+", 3, None])
    def test_bad_terms(self, bad):
        with pytest.raises(SchemaError):
            parse_term(bad)

    @pytest.mark.parametrize("bad", ["sentu", "got u", "sent u v", 3])
    def test_bad_events(self, bad):
        with pytest.raises(SchemaError):
            parse_event(bad)

    @pytest.mark.parametrize("bad", ["noop", "send", "send u v", 3])
    def test_bad_actions(self, bad):
        with pytest.raises(SchemaError):
            parse_action(bad)


class TestRoundTrips:
    def test_all_fixture_documents(self):
        # parse -> dump -> parse is the identity on every shipped fixture,
        # and on a protocol with a union spec, which no fixture has
        for path in [*sorted(FIXTURES.glob("*.json")), FILES / "union-protocol.json"]:
            doc = load_document(path)
            text = dump_document(doc)
            assert parse_document(text) == doc
            # and serialization is deterministic
            assert dump_document(parse_document(text)) == text

    def test_generated_runs_document(self, nack_system):
        runs = generate_system(nack_system, 3)
        parsed = parse_document(dump_document(runs))
        assert parsed == runs
        assert (parsed.agents, parsed.horizon) == (nack_system.agents, 3)

    def test_empty_run_set(self):
        # equality of run sets is set equality, so the agents and horizon
        # of an empty one are compared on their own
        empty = RunAutomaton.of([], ["b", "a"], 3)
        parsed = parse_document(dump_document(empty))
        assert (parsed.agents, parsed.horizon, len(parsed)) == (("a", "b"), 3, 0)

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind":"runs","agents":["a","a"],"horizon":0,"runs":[[{"a":[]}]]}',
            '{"kind":"chains","agents":["a","a"],"chains":[]}',
        ],
    )
    def test_agent_declared_twice_is_written_once(self, text):
        parsed = parse_document(text)
        assert parsed.agents == ("a",)
        assert json.loads(dump_document(parsed))["agents"] == ["a"]

    def test_space_is_written_with_the_messages_it_uses(self):
        # a space file's declared messages are checked, then not kept
        text = (
            '{"kind": "space", "messages": ["u", "v"], "agents": ["a"],'
            ' "strands": [{"id": "s", "agent": "a", "trace": ["+u"]}]}'
        )
        assert json.loads(dump_document(parse_document(text)))["messages"] == ["u"]

    def test_generated_bundles_document(self, nack_space):
        doc = BundlesDocument(enumerate_bundles(nack_space, 6))
        assert parse_document(dump_document(doc)) == doc

    def test_generated_chains_document(self, ping_space):
        chains = enumerate_chain_prefixes(ping_space, 2, 2)
        doc = ChainsDocument(agents=ping_space.agents, chains=chains)
        assert parse_document(dump_document(doc)) == doc


def assert_shared(runs: RunAutomaton) -> None:
    """Equal states, and equal events, of a parsed run set are one object."""
    states: dict = {}
    events: dict = {}
    for run in runs:
        for g in run.states:
            assert states.setdefault(g, g) is g
            for _, h in g.items():
                for e in h:
                    assert events.setdefault(e, e) is e


def assert_chains_shared(doc: ChainsDocument) -> None:
    """Equal bundles, and equal steps, of a parsed document are one object."""
    seen: dict = {}
    for chain in doc.chains:
        for value in (*chain.bundles, *chain.witnesses):
            assert seen.setdefault(value, value) is value


def fixture_runs(name: str, horizon: int) -> RunAutomaton:
    """The runs a fixture gives: a space's translation, a system's
    generated runs or a protocol's runs."""
    model = load_document(fixture_path(name))
    if isinstance(model, StrandSpace):
        return translate(model, horizon, model.node_count())
    if isinstance(model, HistorySet):
        return generate_system(model, horizon)
    return generate_runs(model, horizon)


FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))


class TestSharedEncoding:
    """Runs and chains documents, parsed into shared states and dumped from
    shared text, against the per-event parse and the whole-body dump."""

    @given(run_sets())
    @example((("a",), 0, frozenset()))
    @example((("a", "b"), 3, frozenset()))
    @example((("a",), 0, frozenset({RunPrefix.of([GlobalState.empty("a")])})))
    @example((("a", "b"), 2, frozenset({RunPrefix.of([GlobalState.empty("ab")] * 3)})))
    @settings(max_examples=150, deadline=None)
    def test_drawn_run_sets(self, drawn):
        agents, horizon, runs = drawn
        tree = RunAutomaton.of(runs, agents, horizon)
        text = dump_document(tree)
        assert text == reference_dump(tree)
        parsed = parse_document(text)
        assert parsed == reference_parse_runs(text) == runs
        assert (parsed.agents, parsed.horizon) == (agents, horizon)
        assert_shared(parsed)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_runs(self, name):
        runs = fixture_runs(name, 4)
        text = dump_document(runs)
        assert text == reference_dump(runs)
        parsed = parse_document(text)
        assert parsed == reference_parse_runs(text) == frozenset(runs)
        assert (parsed.agents, parsed.horizon) == (runs.agents, 4)
        assert_shared(parsed)

    @pytest.mark.parametrize(
        "name,horizon,max_nodes",
        [("ping_space", 3, 2), ("nack_space", 4, 6), ("r1_space", 4, 8), ("r1_t5_space", 2, 6)],
    )
    def test_chains(self, name, horizon, max_nodes):
        space = load_document(fixture_path(name))
        chains = enumerate_chain_prefixes(space, horizon, max_nodes)
        doc = ChainsDocument(agents=space.agents, chains=chains)
        text = dump_document(doc)
        assert text == reference_dump(doc)
        parsed = parse_document(text)
        assert parsed == reference_parse_chains(text) == doc
        assert_chains_shared(parsed)

    def test_chains_spelled_differently(self):
        # one bundle written with its keys and edges in two orders, and one
        # step written twice: each is still one object
        empty = {"heights": {}, "edges": []}
        edges = [[["s", 1], ["t", 1]], [["s", 2], ["t", 2]]]
        step = {"f": {}, "extensions": [{"agent": "a", "event": "sent u", "strand": "s"}]}
        chain = {"bundles": [empty, {"heights": {"s": 1}, "edges": []}], "steps": [step]}
        twice = [
            {"heights": {"s": 2, "t": 2}, "edges": edges},
            {"edges": edges[::-1], "heights": {"t": 2, "s": 2}},
        ]
        text = json.dumps(
            {
                "kind": "chains",
                "agents": ["a", "b"],
                "chains": [chain, chain, {"bundles": [empty, *twice], "steps": [step, step]}],
            }
        )
        parsed = parse_document(text)
        assert parsed == reference_parse_chains(text)
        assert parsed.chains[2].bundles[1] is parsed.chains[2].bundles[2]
        assert_chains_shared(parsed)

    def test_empty_chains(self):
        doc = ChainsDocument(agents=("a",), chains=())
        assert dump_document(doc) == reference_dump(doc)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_documents_are_one_dump(self, name):
        text = dump_document(load_document(fixture_path(name)))
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestRunsInAnyOrder:
    """A runs document whose runs are reordered and repeated, and whose
    states name their agents in any order, parses to the set it holds, and
    a malformed state right after the prefix a run shares with the
    previous one is refused with the usual message."""

    @given(run_sets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_shuffled_and_repeated(self, drawn, data):
        agents, horizon, runs = drawn
        canonical = dump_document(RunAutomaton.of(runs, agents, horizon))
        body = json.loads(canonical)
        body["runs"] = [
            [{a: g[a] for a in data.draw(st.permutations(sorted(g)))} for g in run]
            for run in data.draw(scrambled(body["runs"]))
        ]
        text = json.dumps(body)
        parsed = parse_document(text)
        assert parsed.budget.used == prefix_tree_edges(runs)
        assert parsed == reference_parse_runs(text) == runs
        assert dump_document(parsed) == canonical
        assert_shared(parsed)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (5, "global state must be an object"),
            ({"a": []}, "global state agents ['a'] != ['a', 'b']"),
            ({"a": [], "b": 5}, "each history must be a list"),
            ({"a": [], "b": [5]}, "each history must be a list of strings"),
            ({"a": [], "b": ["sent"]}, "expected an event like 'sent u' or 'recv u', got 'sent'"),
        ],
    )
    @pytest.mark.parametrize("at", [1, 2])
    def test_bad_state_after_a_shared_prefix(self, bad, message, at):
        run = [{"a": [], "b": []}, {"a": ["sent u"], "b": []}, {"a": ["sent u"], "b": ["recv u"]}]
        spoiled = run[:at] + [bad] + run[at + 1 :]
        text = json.dumps(
            {"kind": "runs", "agents": ["a", "b"], "horizon": 2, "runs": [run, run, spoiled]}
        )
        with pytest.raises(SchemaError) as raised:
            parse_document(text)
        assert str(raised.value) == message


class TestMemory:
    """Parsing and dumping a runs document hold about one copy of its
    text: the traced peak of each on the r1 translation at horizon 5
    (2.7 MB of text, 3,265 runs of 51 distinct states)."""

    def test_runs_document_peaks(self, r1_space):
        runs = translate(r1_space, 5, r1_space.node_count())
        text = dump_document(runs)
        assert len(text) > 2_000_000
        tracemalloc.start()
        try:
            parsed = parse_document(text)
            _, parse_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            tracemalloc.start()
            assert dump_document(parsed) == text
            _, dump_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parse_peak <= len(text)
        assert dump_peak <= 2 * len(text)


EMPTY = {"heights": {}, "edges": []}
SENT_U_ON_S = {"agent": "a", "strand": "s", "event": "sent u"}


class TestSchemaErrors:
    def test_bad_json(self):
        with pytest.raises(SchemaError):
            parse_document("{not json")

    def test_non_object(self):
        with pytest.raises(SchemaError):
            parse_document("[1, 2]")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_document('{"kind": "graph"}')

    def test_bad_trace_token(self):
        text = (
            '{"kind": "space", "messages": ["u"], "agents": ["a"],'
            ' "strands": [{"id": "s", "agent": "a", "trace": ["u"]}]}'
        )
        with pytest.raises(SchemaError):
            parse_document(text)

    def test_runs_horizon_mismatch(self):
        text = (
            '{"kind": "runs", "agents": ["a"], "horizon": 2,'
            ' "runs": [[{"a": []}]]}'
        )
        with pytest.raises(SchemaError):
            parse_document(text)

    def test_constructor_errors_become_schema_errors(self):
        # a strand id containing whitespace violates a constructor
        # precondition, which parsing surfaces as a schema error
        text = (
            '{"kind": "space", "messages": ["u"], "agents": ["a"],'
            ' "strands": [{"id": "two words", "agent": "a", "trace": ["+u"]}]}'
        )
        with pytest.raises(SchemaError):
            parse_document(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "runs", "agents": ["a"], "horizon": true, "runs": []}',
            '{"kind": "bundles", "bundles": [{"heights": {"s": false}, "edges": []}]}',
            '{"kind": "bundles", "bundles": [{"heights": {"s": 1},'
            ' "edges": [[["s", true], ["t", 1]]]}]}',
            # after an equal-looking height of 1, true is still refused
            '{"kind": "bundles", "bundles": [{"heights": {"s": 1}, "edges": []},'
            ' {"heights": {"s": true}, "edges": []}]}',
            json.dumps(
                {
                    "kind": "chains",
                    "agents": ["a"],
                    "chains": [
                        {
                            "bundles": [EMPTY, {"heights": {"s": h}, "edges": []}],
                            "steps": [{"f": {}, "extensions": [SENT_U_ON_S]}],
                        }
                        for h in (1, True)
                    ],
                }
            ),
        ],
    )
    def test_booleans_are_not_integers(self, text):
        with pytest.raises(SchemaError):
            parse_document(text)

    @pytest.mark.parametrize(
        "state,message",
        [
            ('{"a": 5}', "each history must be a list"),
            ('{"a": [5]}', "each history must be a list of strings"),
            ('{"a": [["sent u"]]}', "each history must be a list of strings"),
            ('{"a": "sent u"}', "each history must be a list"),
            ("{}", "global state agents [] != ['a']"),
            ("[]", "global state must be an object"),
        ],
    )
    def test_bad_runs_states(self, state, message):
        text = f'{{"kind": "runs", "agents": ["a"], "horizon": 0, "runs": [[{state}]]}}'
        with pytest.raises(SchemaError) as raised:
            parse_document(text)
        assert str(raised.value) == message

    def test_nested_unions_parse_or_are_too_deep(self):
        # from some depth on the recursion limit is met: first in the spec
        # parser (two frames a level), on a document json.loads still reads,
        # then, up to Python 3.12, in json.loads (3.13 reads all of these).
        # The message names where it was met.
        outcomes = [
            "parsed",
            "protocol spec of agent a nested too deeply to parse",
            "JSON nested too deeply to parse",
        ]
        spec = '{"monotone": ["sent u"]}'
        seen = []
        for depth in range(300, 1001):
            text = '{"union": [' * depth + spec + "]}" * depth
            doc = '{"kind": "protocol", "messages": ["u"], "agents": {"a": ' + text + "}}"
            try:
                json.loads(doc)
                json_read = True
            except RecursionError:
                json_read = False
            try:
                assert isinstance(parse_document(doc), JointProtocol)
                outcome = "parsed"
            except SchemaError as exc:
                outcome = str(exc)
            # json.loads failing here, a frame nearer the top, fails in the parse
            assert outcome in (outcomes if json_read else outcomes[2:])
            seen.append(outcomes.index(outcome))
        assert seen == sorted(seen)
        assert {0, 1} <= set(seen)

    def test_integer_too_long_to_convert(self):
        with pytest.raises(SchemaError):
            parse_document('{"kind": "runs", "horizon": ' + "1" * 5000 + "}")

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(SchemaError):
            load_document(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_document(tmp_path / "nope.json")
