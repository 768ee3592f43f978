"""The public names of ``strandlab``: what the command line and the checks
run.  The paper's literal definitions that only tests call are in
``tests/reference.py``, not here."""

from __future__ import annotations

import strandlab

PUBLIC = [
    "Action", "BudgetExceededError", "Bundle", "ChainPrefix", "ConflictRelation", "Event",
    "GlobalState", "HistorySet", "IllFormedError", "InputError", "JointProtocol",
    "MonotoneSpec", "NOOP", "Node", "RunAutomaton", "RunPrefix", "SchemaError", "SignedTerm",
    "StepWitness", "Strand", "StrandSpace", "StrandlabError", "TableSpec", "UnionSpec",
    "check_history_preserving", "check_mp", "check_step", "enumerate_bundles",
    "enumerate_chain_prefixes", "eval_protocol", "extended_space_from_system",
    "extract_histories", "generate_runs", "generate_system", "negative", "positive", "recv",
    "send", "sent", "space_from_monotone", "systems_equal", "tau_step", "translate",
]


def test_public_names():
    assert sorted(strandlab.__all__) == PUBLIC
    assert all(hasattr(strandlab, name) for name in PUBLIC)
    namespace: dict = {}
    exec("from strandlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
