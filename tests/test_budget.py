"""Every enumerator honours the state budget, whether or not its step graph
is already cached."""

from __future__ import annotations

import pytest

from strandlab import chains
from strandlab.budget import StateBudget
from strandlab.bundles import enumerate_bundles
from strandlab.chains import enumerate_chain_prefixes, step_graph, translate
from strandlab.cli import main
from strandlab.errors import BudgetExceededError
from strandlab.protocols import generate_runs
from strandlab.systems import generate_system

from conftest import fixture_path


def graph_cost(space, max_nodes) -> int:
    budget = StateBudget()
    step_graph(space, max_nodes, budget)
    return budget.used


def test_enumerate_bundles(r1_space):
    with pytest.raises(BudgetExceededError):
        enumerate_bundles(r1_space, 8, budget=StateBudget(5))


def test_step_graph_cold(r1_space, cold_cache):
    with pytest.raises(BudgetExceededError):
        step_graph(r1_space, 8, StateBudget(5))


def test_step_graph_successor_phase(r1_space, cold_cache):
    # one tick per candidate bundle built: a limit of k raises at the next
    # candidate, after exactly k ticks
    space = r1_space
    cost = graph_cost(space, 8)
    graph = step_graph(space, 8)
    assert cost >= sum(len(succ) for succ in graph.successors.values())
    for k in (0, 1, 3, cost - 1):
        chains._GRAPH_CACHE.clear()
        budget = StateBudget(k)
        with pytest.raises(BudgetExceededError):
            step_graph(space, 8, budget)
        assert budget.used == k + 1
    chains._GRAPH_CACHE.clear()
    budget = StateBudget(cost)
    step_graph(space, 8, budget)
    assert budget.used == cost


def test_step_graph_cache_hit_is_charged(r1_space, cold_cache):
    cold = StateBudget()
    step_graph(r1_space, 8, cold)
    warm = StateBudget()
    graph = step_graph(r1_space, 8, warm)
    assert len(graph.successors) == 25
    assert warm.used == cold.used > 0
    with pytest.raises(BudgetExceededError):
        step_graph(r1_space, 8, StateBudget(5))


def test_translate(r1_space):
    # enough for the step graph, not for the runs at horizon 4
    budget = StateBudget(graph_cost(r1_space, 8) + 10)
    with pytest.raises(BudgetExceededError):
        translate(r1_space, 4, 8, budget=budget)


def test_enumerate_chain_prefixes(r1_space):
    budget = StateBudget(graph_cost(r1_space, 8) + 10)
    with pytest.raises(BudgetExceededError):
        enumerate_chain_prefixes(r1_space, 4, 8, budget=budget)


def test_generate_system(r1_system):
    with pytest.raises(BudgetExceededError):
        generate_system(r1_system, 6, budget=StateBudget(10))


def test_generate_runs(nack_protocol):
    with pytest.raises(BudgetExceededError):
        generate_runs(nack_protocol, 6, budget=StateBudget(10))


def test_cli_budget_error_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("STRANDLAB_MAX_STATES", "10")
    space, system = fixture_path("r1_space"), fixture_path("r1_system")
    code = main(["check", "--theorem", "3", str(space), str(system)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "1e3", "-5"])
def test_malformed_budget_variable_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("STRANDLAB_MAX_STATES", value)
    assert main(["check", "--theorem", "1", str(fixture_path("ping_space"))]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: STRANDLAB_MAX_STATES must be a non-negative integer, got {value!r}\n",
    )


def test_translate_materialization(r1_space):
    # building the automaton fits; yielding its 75,115 runs, one tick each,
    # does not
    cost = StateBudget()
    translate(r1_space, 8, 8, budget=cost)
    runs = translate(r1_space, 8, 8, budget=StateBudget(cost.used + 10))
    assert len(runs) == 75_115
    with pytest.raises(BudgetExceededError):
        for _ in runs:
            pass
