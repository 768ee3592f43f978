from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strandlab.core import (
    Event,
    GlobalState,
    Node,
    SignedTerm,
    Strand,
    StrandSpace,
    event_term_bijection,
    negative,
    positive,
    recv,
    sent,
    term_of,
    validate_space,
)
from strandlab.errors import InputError

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
        assert event_term_bijection(sent("u")) == positive("u")
        # [TRIVIAL] definitional
        assert event_term_bijection(negative("v")) == recv("v")

    @given(tokens, st.booleans())
    def test_bijection_is_an_involution(self, msg, pos):
        term = positive(msg) if pos else negative(msg)
        assert event_term_bijection(event_term_bijection(term)) == term
        event = sent(msg) if pos else recv(msg)
        assert event_term_bijection(event_term_bijection(event)) == event

    def test_bijection_rejects_other_types(self):
        with pytest.raises(InputError):
            event_term_bijection("sent u")


class TestTermOf:
    def test_relay_space_first_node(self, r1_space):
        # [PAPER] agent 2's strand opens by sending u
        assert term_of(r1_space.space, Node("s12", 1)) == positive("u")

    def test_single_node_strand(self):
        # [TRIVIAL]
        space = StrandSpace.identity([Strand("s", (negative("u"),))])
        assert term_of(space, Node("s", 1)) == negative("u")

    def test_nack_space_middle_node(self, nack_space):
        # [PAPER] the nack-first strand receives u at its second node
        assert term_of(nack_space.space, Node("s2b", 2)) == negative("u")

    def test_unknown_strand(self, r1_space):
        with pytest.raises(InputError):
            term_of(r1_space.space, Node("nope", 1))

    def test_index_out_of_range(self, r1_space):
        with pytest.raises(InputError):
            term_of(r1_space.space, Node("s12", 3))

    def test_total_on_node_set(self, r1_space):
        space = r1_space.space
        for node in space.nodes():
            expected = space.strand(node.strand).trace[node.index - 1]
            assert term_of(space, node) == expected


class TestValidateSpace:
    def test_fixture_spaces_are_well_formed(self, r1_space, nack_space, ping_space):
        for doc in (r1_space, nack_space, ping_space):
            assert validate_space(doc.space).ok

    def test_empty_trace_reported(self):
        space = StrandSpace.of([Strand("s", ())], ["a"], {"s": "a"})
        report = validate_space(space)
        assert any("empty trace" in p for p in report.problems)

    def test_unassigned_strand_reported(self):
        space = StrandSpace.of([Strand("s", (positive("u"),))], ["a"], {})
        report = validate_space(space)
        assert any("unassigned strand" in p for p in report.problems)

    def test_undeclared_agent_reported(self):
        space = StrandSpace.of([Strand("s", (positive("u"),))], ["a"], {"s": "ghost"})
        assert not validate_space(space).ok


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

    def test_cached_hash_is_the_dataclass_hash(self):
        # the value the generated dataclass hash gives, so set and dict
        # orders are unchanged; repeated calls give it again
        g = GlobalState.empty(["a", "b"]).extend({"a": sent("u")})
        assert hash(g) == hash((g.locals,)) == hash(g)
        twin = GlobalState.of({"b": (), "a": (sent("u"),)})
        assert twin == g and twin is not g and hash(twin) == hash(g)
        assert repr(g) == f"GlobalState(locals={g.locals!r})"

    def test_identity_assignment_helpers(self, r1_space):
        ident = r1_space.space.with_identity_assignment()
        assert ident.is_identity_assigned()
        assert not r1_space.space.is_identity_assigned()
        assert set(ident.agents) == {s.id for s in ident.strands}
