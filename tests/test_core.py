from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strandlab.bundles import EMPTY_BUNDLE, Bundle
from strandlab.chains import ChainPrefix, StepGraph, StepWitness
from strandlab.checks import CheckResult
from strandlab.core import (
    ConflictRelation,
    Event,
    GlobalState,
    Node,
    SignedTerm,
    Strand,
    StrandSpace,
    event_to_term,
    negative,
    positive,
    recv,
    sent,
    term_to_event,
)
from strandlab.documents import BundlesDocument, ChainsDocument
from strandlab.errors import InputError
from strandlab.protocols import NOOP, Action, JointProtocol, MonotoneSpec, TableSpec, UnionSpec
from strandlab.systems import (
    EqualityReport,
    HistoryPreservingReport,
    HistorySet,
    MPReport,
    RunAutomaton,
    RunPrefix,
)

from conftest import raised_problems
from reference import BundleReport, term_of

tokens = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=6
)


class TestSignedTermsAndEvents:
    def test_rendering(self):
        assert str(positive("u")) == "+u"
        assert str(negative("v")) == "-v"
        assert str(sent("u")) == "sent u"
        assert str(recv("v")) == "recv v"

    def test_bad_sign_rejected(self):
        with pytest.raises(InputError):
            SignedTerm("*", "u")

    def test_whitespace_message_rejected(self):
        with pytest.raises(InputError):
            Event("sent", "two words")

    def test_bijection_examples(self):
        # [PAPER] a sent event corresponds to the positive term
        assert event_to_term(sent("u")) == positive("u")
        # [TRIVIAL] definitional
        assert term_to_event(negative("v")) == recv("v")

    @given(tokens, st.booleans())
    def test_bijection_is_an_involution(self, msg, pos):
        term = positive(msg) if pos else negative(msg)
        assert event_to_term(term_to_event(term)) == term
        event = sent(msg) if pos else recv(msg)
        assert term_to_event(event_to_term(event)) == event

    def test_bijection_rejects_other_types(self):
        # neither carrier takes the other's tags
        with pytest.raises(InputError):
            SignedTerm("sent", "u")
        with pytest.raises(InputError):
            Event("+", "u")


class TestTermOf:
    def test_relay_space_first_node(self, r1_space):
        # [PAPER] agent 2's strand opens by sending u
        assert term_of(r1_space, Node("s12", 1)) == positive("u")

    def test_single_node_strand(self):
        # [TRIVIAL]
        space = StrandSpace.identity([Strand("s", (negative("u"),))])
        assert term_of(space, Node("s", 1)) == negative("u")

    def test_nack_space_middle_node(self, nack_space):
        # [PAPER] the nack-first strand receives u at its second node
        assert term_of(nack_space, Node("s2b", 2)) == negative("u")

    def test_unknown_strand(self, r1_space):
        with pytest.raises(InputError):
            term_of(r1_space, Node("nope", 1))

    def test_index_out_of_range(self, r1_space):
        with pytest.raises(InputError):
            term_of(r1_space, Node("s12", 3))

    def test_total_on_node_set(self, r1_space):
        space = r1_space
        for s in space.strands:
            for i, term in enumerate(s.trace, start=1):
                assert term_of(space, Node(s.id, i)) == term


class TestValidateSpace:
    def test_fixture_spaces_are_well_formed(self, r1_space, nack_space, ping_space):
        for space in (r1_space, nack_space, ping_space):
            assert StrandSpace.of(space.strands, space.agents, dict(space.assignment)) == space

    def test_empty_trace_reported(self):
        assert raised_problems(lambda: StrandSpace.of([Strand("s", ())], ["a"], {"s": "a"})) == (
            "empty trace on strand s",
        )

    def test_unassigned_strand_reported(self):
        assert raised_problems(
            lambda: StrandSpace.of([Strand("s", (positive("u"),))], ["a"], {})
        ) == ("unassigned strand: s",)

    def test_undeclared_agent_reported(self):
        assert raised_problems(
            lambda: StrandSpace.of([Strand("s", (positive("u"),))], ["a"], {"s": "ghost"})
        ) == ("strand s assigned to undeclared agent ghost",)

    def test_every_problem_is_reported_in_order(self):
        strands = [Strand("s", (positive("u"),)), Strand("s", ()), Strand("t", ())]
        assert raised_problems(
            lambda: StrandSpace.of(strands, ["a"], {"s": "a", "t": "ghost", "x": "a"})
        ) == (
            "duplicate strand id: s",
            "empty trace on strand s",
            "empty trace on strand t",
            "strand t assigned to undeclared agent ghost",
            "assignment references unknown strand: x",
        )

    def test_conflict_pairs_are_the_space_s_own_problems(self):
        # an unknown strand and a cross-agent pair, in the lines `validate`
        # prints, after the space's own problems
        strands = [Strand("s", (positive("u"),)), Strand("t", (negative("u"),)), Strand("t", ())]
        assignment = {"s": "a", "t": "b"}
        assert raised_problems(
            lambda: StrandSpace.of(strands[:2], ["a", "b"], assignment, [("s", "zz")])
        ) == ("conflict pair references unknown strand 'zz'",)
        assert raised_problems(
            lambda: StrandSpace.of(strands[:2], ["a", "b"], assignment, [("s", "t")])
        ) == ("conflict pair spans agents: (s, t)",)
        assert raised_problems(
            lambda: StrandSpace.of(strands, ["a", "b"], assignment, [("t", "s"), ("s", "zz")])
        ) == (
            "duplicate strand id: t",
            "empty trace on strand t",
            "conflict pair spans agents: (s, t)",
            "conflict pair references unknown strand 'zz'",
        )

    def test_plain_and_empty_relations_differ(self):
        plain = StrandSpace.identity([Strand("s", (positive("u"),))])
        empty = StrandSpace.of(plain.strands, plain.agents, dict(plain.assignment), [])
        assert plain.conflicts is None and empty.conflicts == ConflictRelation()
        assert plain != empty and empty.without_conflicts() == plain
        fields = (empty.strands, empty.agents, empty.assignment, empty.conflicts)
        assert hash(empty) == hash(fields) != hash(plain)
        assert repr(empty).endswith(", conflicts=ConflictRelation())")
        assert plain.without_conflicts() is plain
        assert empty.with_identity_assignment() == plain


class TestGlobalState:
    def test_empty_state(self):
        g = GlobalState.empty(["a", "b"])
        assert g.history("a") == ()
        assert g.agents == ("a", "b")

    def test_extend_appends_one_event(self):
        g = GlobalState.empty(["a", "b"]).extend({"a": sent("u")})
        assert g.history("a") == (sent("u"),)
        assert g.history("b") == ()

    def test_unknown_agent(self):
        with pytest.raises(InputError):
            GlobalState.empty(["a"]).history("z")

    def test_hash_is_the_field_tuple_hash(self):
        # a record's hash is its field tuple's, so set and dict orders
        # follow the values; equal states built apart hash alike
        g = GlobalState.empty(["a", "b"]).extend({"a": sent("u")})
        assert hash(g) == hash((g.locals,)) == hash(g)
        twin = GlobalState.of({"b": (), "a": (sent("u"),)})
        assert twin == g and twin is not g and hash(twin) == hash(g)
        assert repr(g) == f"GlobalState(locals={g.locals!r})"

    def test_identity_assignment_helpers(self, r1_space):
        ident = r1_space.with_identity_assignment()
        assert all(sid == agent for sid, agent in ident.assignment)
        assert not all(sid == agent for sid, agent in r1_space.assignment)
        assert set(ident.agents) == {s.id for s in ident.strands}


# Every value type of the package: an instance, its field names in order,
# two instances in increasing field order when the type is ordered, and the
# bad inputs its constructor rejects.
_STRAND = Strand("s", (positive("u"),))
_SPACE = StrandSpace.identity([_STRAND])
_STATE = GlobalState.empty(["a", "b"]).extend({"a": sent("u")})
_BUNDLE = Bundle.of({"s": 1})
_WITNESS = StepWitness((("s", "s"),), (("s", "s", sent("u")),))
_CHAIN = ChainPrefix(("s",), (EMPTY_BUNDLE, _BUNDLE), (_WITNESS,))
_HISTORIES = HistorySet.of({"a": [(), (sent("u"),)]})
_PROTOCOL = JointProtocol.of({"a": MonotoneSpec((sent("u"),))}, ["u"])
_RUN = RunPrefix((GlobalState.empty(["a"]),))
_RUNS = RunAutomaton.of([_RUN], ["a"], 0)
VALUE_TYPES = [
    (positive("u"), ("sign", "message"), (positive("u"), negative("u")),
     [("*", "u"), ("+", ""), ("+", "two words")]),
    (sent("u"), ("kind", "message"), (recv("v"), sent("u")),
     [("got", "u"), ("sent", "two words")]),
    (Strand("s", (positive("u"),)), ("id", "trace"),
     (Strand("a", (positive("u"),)), Strand("a", (positive("v"),))),
     [("", ()), ("two words", ())]),
    (Node("s", 2), ("strand", "index"), (Node("s", 2), Node("s", 10)), []),
    (_SPACE, ("strands", "agents", "assignment", "conflicts"),
     (StrandSpace.identity([Strand("a", (positive("u"),))]), _SPACE),
     [((_STRAND, Strand("s", (negative("u"),))), ("s",), (("s", "s"),)),
      ((_STRAND,), ("s",), ()),
      ((_STRAND,), ("s",), (("s", "s"),), ConflictRelation([("s", "t")]))]),
    (_STATE, ("locals",), (GlobalState.empty(["a", "b"]), _STATE), []),
    (_BUNDLE, ("heights", "edges"), None, []),
    (BundleReport((("B2", "receive node <s,1> has no sender"),), False),
     ("problems", "checked_b5"), None, []),
    (_WITNESS, ("f", "extensions"), None, []),
    (_CHAIN, ("agents", "bundles", "witnesses"), None,
     [(("s",), (), ()), (("s",), (_BUNDLE,), ()), (("s",), (EMPTY_BUNDLE,), (_WITNESS,))]),
    (StepGraph({EMPTY_BUNDLE: ()}, {EMPTY_BUNDLE: 0}), ("successors", "distance"), None, []),
    (CheckResult("name", True, ("a line",)), ("name", "ok", "lines"), None, []),
    (BundlesDocument((EMPTY_BUNDLE, _BUNDLE)), ("bundles",), None, []),
    (ChainsDocument(("s",), (_CHAIN,)), ("agents", "chains"), None, []),
    (Action("send", "u"), ("kind", "message"), (NOOP, Action("send", "u")),
     [("send",), ("send", ""), ("no-op", "u"), ("jump",)]),
    (MonotoneSpec((sent("u"),)), ("events",), None, []),
    (UnionSpec((MonotoneSpec(()),)), ("members",), None, [((),)]),
    (TableSpec.of({(): [NOOP]}), ("entries", "default"), None,
     [((), frozenset()), ((((), frozenset()),),)]),
    (_PROTOCOL, ("per_agent", "messages"), None,
     [((("a", MonotoneSpec((sent("v"),))),), ("u",))]),
    (_RUN, ("states",), (_RUN, RunPrefix((_STATE,))), [((),)]),
    (_HISTORIES, ("per_agent",), None, [((("a", ((sent("u"),),)),),)]),
    (MPReport(None, "at time 1: 1 receives of u but only 0 sends", None),
     ("mp1", "mp2", "mp3"), None, []),
    (EqualityReport(True, _RUNS, _RUNS), ("equal", "only_in_a", "only_in_b"), None, []),
    (HistoryPreservingReport((("a", (sent("u"),)),), ()),
     ("clause1_failures", "clause2_failures"), None, []),
]


@pytest.mark.parametrize(
    "value,names,ordered,bad", VALUE_TYPES, ids=[type(v[0]).__name__ for v in VALUE_TYPES]
)
def test_value_semantics(value, names, ordered, bad):
    cls = type(value)
    fields = tuple(getattr(value, n) for n in names)
    # the constructor takes the fields, by position and by keyword
    assert cls(*fields) == value == cls(**dict(zip(names, fields)))
    # the hash of the field tuple; a type with unhashable fields has none
    try:
        expected = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected
    assert repr(value) == f"{cls.__name__}({', '.join(f'{n}={f!r}' for n, f in zip(names, fields))})"
    with pytest.raises(AttributeError):
        setattr(value, names[0], fields[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    if ordered is not None:
        low, high = ordered
        assert tuple(getattr(low, n) for n in names) < tuple(getattr(high, n) for n in names)
        assert low < high and low <= high and high > low and high >= low
        assert not high < low and low != high
        assert sorted([high, low]) == [low, high]
    for args in bad:
        with pytest.raises(InputError):
            cls(*args)
