from __future__ import annotations

import json
import pathlib
from collections import deque
from itertools import product

import pytest
from hypothesis import strategies as st

from strandlab import chains
from strandlab.bundles import EMPTY_BUNDLE, Bundle, enumerate_bundles, validate_bundle
from strandlab.chains import ChainPrefix, StepWitness, check_step
from strandlab.core import (
    GlobalState,
    Node,
    Strand,
    StrandSpace,
    event_to_term,
    negative,
    positive,
    recv,
    sent,
    term_of,
)
from strandlab.documents import ChainsDocument, load_document, parse_event
from strandlab.errors import IllFormedError
from strandlab.systems import RunAutomaton, RunPrefix, check_mp

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


def brute_force_runs(agents, universe, horizon, admissible):
    """Reference run enumeration, slow and independent of `explore`.

    Every run is extended by every per-agent stutter or one-event append
    over the whole universe, and kept when ``admissible(g, g2)`` accepts
    its last round and the run passes MP1-MP3.  Both filters are closed
    under prefixes, so pruning level by level drops no complete run.
    """
    events = [e for u in sorted(universe) for e in (sent(u), recv(u))]
    runs = [RunPrefix.of([GlobalState.empty(agents)])]
    for _ in range(horizon):
        extended = []
        for run in runs:
            g = run.final()
            for combo in product([None, *events], repeat=len(g.agents)):
                g2 = g.extend({a: e for a, e in zip(g.agents, combo) if e is not None})
                longer = RunPrefix(run.states + (g2,))
                if admissible(g, g2) and check_mp(universe, agents, longer).ok:
                    extended.append(longer)
        runs = extended
    return frozenset(runs)


def pairwise_step_graph(space, max_nodes):
    """Reference step relation: `check_step` on every ordered pair of
    enumerated bundles, successors kept in enumeration order."""
    bundles = enumerate_bundles(space, max_nodes)
    successors = {}
    for b1 in bundles:
        succ = []
        for b2 in bundles:
            witness = check_step(space, b1, b2)
            if witness is not None:
                succ.append((b2, witness))
        successors[b1] = tuple(succ)
    return successors


def bfs_distances(graph) -> dict:
    """Reference distances: a breadth-first search over the graph's
    successors from the empty bundle, fewest steps per bundle reached."""
    dist = {EMPTY_BUNDLE: 0}
    queue = deque([EMPTY_BUNDLE])
    while queue:
        b = queue.popleft()
        for b2, _ in graph.successors[b]:
            if b2 not in dist:
                dist[b2] = dist[b] + 1
                queue.append(b2)
    return dist


def reference_message_equivalent(space, g, bundle) -> bool:
    """Reference message equivalence, strand by strand: each strand's
    height equals its history's length and each event is the term at its
    node.  Assumes an identity-assigned space and a state over its strands."""
    for sid, history in g.items():
        if bundle.height(sid) != len(history):
            return False
        for i, event in enumerate(history, start=1):
            if event_to_term(event) != term_of(space, Node(sid, i)):
                return False
    return True


def brute_force_bundles(space, max_nodes):
    """Reference bundle enumeration: every height vector within max_nodes
    and every set of same-message send->receive edges between its nodes,
    kept when `validate_bundle` accepts it (B5 against the space's
    conflicts), in `Bundle.sort_key` order."""
    found = []
    for heights in product(*(range(len(s) + 1) for s in space.strands)):
        if sum(heights) > max_nodes:
            continue
        base = Bundle.of({s.id: h for s, h in zip(space.strands, heights)})
        nodes = list(base.nodes())
        pairs = [
            (n1, n2)
            for n1 in nodes
            for n2 in nodes
            if term_of(space, n1).positive
            and not term_of(space, n2).positive
            and term_of(space, n1).message == term_of(space, n2).message
        ]
        for keep in product((False, True), repeat=len(pairs)):
            bundle = Bundle(base.heights, frozenset(e for e, k in zip(pairs, keep) if k))
            if validate_bundle(space, bundle).ok:
                found.append(bundle)
    return tuple(sorted(found, key=Bundle.sort_key))


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
    agent = space.assignment_map
    pairs = [
        (x.id, y.id)
        for x in space.strands
        for y in space.strands
        if x.id < y.id and agent[x.id] == agent[y.id]
    ]
    drawn = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return StrandSpace.of(space.strands, space.agents, space.assignment_map, drawn)


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


def reference_parse_chains(text: str) -> ChainsDocument:
    """Reference chains parse: a fresh `Bundle` and `StepWitness` for
    every occurrence of a bundle or step in every chain."""
    body = json.loads(text)
    agents = tuple(sorted(body["agents"]))
    chains = []
    for raw in body["chains"]:
        bundles = tuple(
            Bundle.of(b["heights"], [(Node(*n1), Node(*n2)) for n1, n2 in b["edges"]])
            for b in raw["bundles"]
        )
        witnesses = tuple(
            StepWitness(
                f=tuple(sorted(w["f"].items())),
                extensions=tuple(
                    sorted(
                        (e["agent"], e["strand"], parse_event(e["event"]))
                        for e in w["extensions"]
                    )
                ),
            )
            for w in raw["steps"]
        )
        chains.append(ChainPrefix(agents=agents, bundles=bundles, witnesses=witnesses))
    return ChainsDocument(agents=agents, chains=tuple(chains))


def reference_parse_runs(text: str) -> frozenset[RunPrefix]:
    """Reference runs parse: a fresh `GlobalState` and `Event` for every
    state of every run, collected in a frozenset."""
    body = json.loads(text)
    agents = tuple(sorted(body["agents"]))
    runs = set()
    for raw_run in body["runs"]:
        assert len(raw_run) == body["horizon"] + 1
        states = []
        for raw in raw_run:
            assert set(raw) == set(agents)
            states.append(
                GlobalState.of({a: tuple(parse_event(e) for e in raw[a]) for a in agents})
            )
        runs.add(RunPrefix.of(states))
    return frozenset(runs)


def reference_dump(doc) -> str:
    """Reference dump of a run set or chains document: the whole body built
    run by run or chain by chain, then one `json.dumps`."""
    if isinstance(doc, RunAutomaton):
        body = {
            "kind": "runs",
            "agents": list(doc.agents),
            "horizon": doc.horizon,
            "runs": [
                [{a: [str(e) for e in h] for a, h in g.items()} for g in run.states]
                for run in sorted(doc)
            ],
        }
    else:
        body = {
            "kind": "chains",
            "agents": list(doc.agents),
            "chains": [
                {
                    "bundles": [
                        {
                            "heights": dict(b.heights),
                            "edges": [
                                [[n1.strand, n1.index], [n2.strand, n2.index]]
                                for n1, n2 in sorted(b.edges)
                            ],
                        }
                        for b in chain.bundles
                    ],
                    "steps": [
                        {
                            "f": dict(w.f),
                            "extensions": [
                                {"agent": agent, "strand": strand, "event": str(event)}
                                for agent, strand, event in w.extensions
                            ],
                        }
                        for w in chain.witnesses
                    ],
                }
                for chain in doc.chains
            ],
        }
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def reference_validate_runs(text: str) -> str:
    """Reference `validate` stdout for a runs document: `check_mp` on
    every run in sorted order, reporting the first run that fails."""
    agents = tuple(sorted(json.loads(text)["agents"]))
    runs = reference_parse_runs(text)
    universe = {e.message for r in runs for g in r.states for _, h in g.items() for e in h}
    for run in sorted(runs):
        report = check_mp(universe, agents, run)
        problems = [
            f"{label}: {problem}"
            for label, problem in (("MP1", report.mp1), ("MP2", report.mp2), ("MP3", report.mp3))
            if problem
        ]
        if problems:
            return "".join(p + "\n" for p in problems)
    return "ok\n"


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
