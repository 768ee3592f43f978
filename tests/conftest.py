from __future__ import annotations

import pathlib

import pytest
from hypothesis import strategies as st

from strandlab import chains
from strandlab.core import GlobalState, Strand, StrandSpace, negative, positive, recv, sent
from strandlab.documents import load_document
from strandlab.errors import IllFormedError
from strandlab.systems import RunPrefix

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FILES = pathlib.Path(__file__).resolve().parent / "files"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.json"


def raised_problems(build) -> tuple[str, ...]:
    """The problems of the `IllFormedError` that ``build()`` raises, after
    checking that its message is the first of them."""
    with pytest.raises(IllFormedError) as raised:
        build()
    assert str(raised.value) == raised.value.problems[0]
    return raised.value.problems


def relay_space(k: int) -> StrandSpace:
    """A hub agent owning k strands +q_i,-r_i, each answered by a spoke
    agent's strand -q_i,+r_i: 4k nodes and 5**k bundles."""
    strands, assignment = [], {}
    for i in range(k):
        strands.append(Strand(f"h{i}", (positive(f"q{i}"), negative(f"r{i}"))))
        strands.append(Strand(f"p{i}", (negative(f"q{i}"), positive(f"r{i}"))))
        assignment[f"h{i}"], assignment[f"p{i}"] = "hub", f"spoke{i}"
    return StrandSpace.of(strands, assignment.values(), assignment)


def ring_space(n: int) -> StrandSpace:
    """n identity-assigned strands +m_i,-m_(i-1): each agent sends its
    token, then receives its predecessor's."""
    return StrandSpace.identity(
        Strand(f"a{i}", (positive(f"m{i}"), negative(f"m{(i - 1) % n}")))
        for i in range(n)
    )


TERMS = st.sampled_from([positive("u"), negative("u"), positive("v"), negative("v")])


def with_drawn_conflicts(draw, space):
    """The space, plain in half the draws, else with a drawn set of
    same-agent strand pairs as its conflict relation."""
    if not draw(st.booleans()):
        return space
    agent = dict(space.assignment)
    pairs = [
        (x.id, y.id)
        for x in space.strands
        for y in space.strands
        if x.id < y.id and agent[x.id] == agent[y.id]
    ]
    drawn = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return StrandSpace.of(space.strands, space.agents, agent, drawn)


@st.composite
def small_spaces(draw, space_nodes: int = 12):
    """(space, max_nodes): 1-3 agents, 1-4 strands of 1-3 terms over
    the messages u and v, at most ``space_nodes`` nodes in all (the last
    strands drawn shorter, or not at all), and, in half the draws, a
    conflict relation of same-agent strand pairs; max_nodes is at most 6
    and the node count.  At the default every draw fits."""
    agents = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    strands, assignment = [], {}
    for i in range(draw(st.integers(1, 4))):
        room = min(3, space_nodes - sum(len(s.trace) for s in strands))
        if room < 1:
            break
        strands.append(Strand(f"s{i}", tuple(draw(st.lists(TERMS, min_size=1, max_size=room)))))
        assignment[f"s{i}"] = draw(st.sampled_from(agents))
    space = with_drawn_conflicts(draw, StrandSpace.of(strands, agents, assignment))
    max_nodes = draw(st.integers(0, min(6, space.node_count())))
    return space, max_nodes


@st.composite
def twin_spaces(draw):
    """(space, max_nodes) in which each of 1-2 agents owns 2-3 strands
    of 1-3 terms that share their first term, so that witness maps other
    than the identity move prefixes between them; messages u and v,
    conflicts in half the draws, max_nodes at most 5 and the node count."""
    agents = draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=2, unique=True))
    strands, assignment = [], {}
    for agent in agents:
        first = draw(TERMS)
        for _ in range(draw(st.integers(2, 3))):
            sid = f"s{len(strands)}"
            strands.append(Strand(sid, (first, *draw(st.lists(TERMS, max_size=2)))))
            assignment[sid] = agent
    space = with_drawn_conflicts(draw, StrandSpace.of(strands, agents, assignment))
    max_nodes = draw(st.integers(0, min(5, space.node_count())))
    return space, max_nodes


EVENTS = (sent("u"), recv("u"), sent("v"), recv("v"))


@st.composite
def run_sets(draw, max_runs: int = 6):
    """(agents, horizon, runs): up to three agents, horizon 0-3 and a set of
    runs of that horizon.  Each run starts empty or, rarely, not, and each
    round every agent stays, appends an event, or, rarely, shrinks or
    jumps by two events, so the sets mix runs that pass MP1-MP3 with runs
    that fail them and repeat states within and across runs."""
    agents = tuple(sorted(draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))))
    horizon = draw(st.integers(0, 3))
    moves = st.sampled_from(["stay", "stay", "stay", *EVENTS, "shrink", "jump"])
    runs = set()
    for _ in range(draw(st.integers(0, max_runs))):
        g = {a: draw(st.sampled_from([(), (), (), (), (sent("u"),)])) for a in agents}
        states = [GlobalState.of(g)]
        for _ in range(horizon):
            for a in agents:
                move = draw(moves)
                if move == "shrink":
                    g[a] = g[a][:-1]
                elif move == "jump":
                    g[a] += (sent("v"), recv("u"))
                elif move != "stay":
                    g[a] += (move,)
            states.append(GlobalState.of(g))
        runs.add(RunPrefix.of(states))
    return agents, horizon, frozenset(runs)


@st.composite
def scrambled(draw, items) -> list:
    """``items`` in a drawn order, some repeated right after themselves
    and some repeated further on; every item occurs at least once."""
    out = list(draw(st.permutations(items)))
    if out:
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(out) - 1))
            out.insert(i + 1, out[i])
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(out) - 1))
            out.insert(draw(st.integers(0, len(out))), out[i])
    return out


def prefix_tree_edges(runs) -> int:
    """The edges of the prefix tree of ``runs``: their distinct prefixes
    of two or more states."""
    return len({r.states[: d + 1] for r in runs for d in range(1, len(r.states))})


@pytest.fixture
def cold_cache(monkeypatch):
    monkeypatch.setattr(chains, "_GRAPH_CACHE", {})


@pytest.fixture(scope="session")
def r1_space():
    return load_document(fixture_path("r1_space"))


@pytest.fixture(scope="session")
def r1_system():
    return load_document(fixture_path("r1_system"))


@pytest.fixture(scope="session")
def r1_t5_space():
    return load_document(fixture_path("r1_t5_space"))


@pytest.fixture(scope="session")
def r1_choice_protocol():
    return load_document(fixture_path("r1_choice_protocol"))


@pytest.fixture(scope="session")
def nack_space():
    return load_document(fixture_path("nack_space"))


@pytest.fixture(scope="session")
def nack_system():
    return load_document(fixture_path("nack_system"))


@pytest.fixture(scope="session")
def nack_protocol():
    return load_document(fixture_path("nack_protocol"))


@pytest.fixture(scope="session")
def u1u2u3_protocol():
    return load_document(fixture_path("u1u2u3_protocol"))


@pytest.fixture(scope="session")
def ping_space():
    return load_document(fixture_path("ping_space"))
