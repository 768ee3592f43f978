from __future__ import annotations

import pathlib
from itertools import product

import pytest

from strandlab import chains
from strandlab.bundles import enumerate_bundles
from strandlab.chains import check_step
from strandlab.core import GlobalState, recv, sent
from strandlab.documents import load_document
from strandlab.systems import RunPrefix, check_mp

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.json"


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


def pairwise_step_graph(space, conf, max_nodes):
    """Reference step relation: `check_step` on every ordered pair of
    enumerated bundles, successors kept in enumeration order."""
    bundles = enumerate_bundles(space, conf, max_nodes)
    successors = {}
    for b1 in bundles:
        succ = []
        for b2 in bundles:
            witness = check_step(space, b1, b2)
            if witness is not None:
                succ.append((b2, witness))
        successors[b1] = tuple(succ)
    return successors


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
