"""Command-line interface.

Three subcommands over the JSON model files described in `documents`:

  validate PATH                      well-formedness report
  enumerate PATH --bundles|--chains|--translate|--gen-system|--run-protocol
  check --equal|--history-preserving|--theorem N|--lemma N PATH...

Exit codes: 0 when everything holds, 1 when a modeled property fails,
2 on usage, parse, or budget errors.  Output is deterministic: the same
inputs and flags always produce the same bytes.
"""

from __future__ import annotations

import argparse
import sys

from .bundles import enumerate_bundles, validate_conflicts
from .chains import enumerate_chain_prefixes, translate
from .checks import (
    _describe_state, lemma_1, lemma_2, node_cap,
    theorem_1, theorem_2, theorem_3, theorem_4, theorem_5, theorem_6, theorem_7,
)
from .core import validate_space
from .errors import BudgetExceededError, InputError, SchemaError
from .documents import (
    BundlesDocument,
    ChainsDocument,
    Document,
    ProtocolDocument,
    RunsDocument,
    SpaceDocument,
    SystemDocument,
    dump_document,
    load_document,
)
from .protocols import generate_runs
from .systems import (
    check_history_preserving,
    check_mp,
    generate_system,
    mp_violations,
    systems_equal,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strandlab",
        description="Strand-space and run-based execution models, exhaustively checked.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a model file for well-formedness")
    p_validate.add_argument("path")

    p_enum = sub.add_parser("enumerate", help="enumerate bundles, chains, or runs")
    p_enum.add_argument("path")
    mode = p_enum.add_mutually_exclusive_group(required=True)
    mode.add_argument("--bundles", action="store_true")
    mode.add_argument("--chains", action="store_true")
    mode.add_argument("--translate", action="store_true")
    mode.add_argument("--gen-system", action="store_true")
    mode.add_argument("--run-protocol", action="store_true")
    p_enum.add_argument("--horizon", type=int, default=4)
    p_enum.add_argument("--max-nodes", type=int, default=8)
    p_enum.add_argument("--out")

    p_check = sub.add_parser("check", help="check an equivalence, theorem, or lemma")
    what = p_check.add_mutually_exclusive_group(required=True)
    what.add_argument("--equal", action="store_true")
    what.add_argument("--history-preserving", action="store_true")
    what.add_argument("--theorem", type=int, choices=sorted(range(1, 8)))
    what.add_argument("--lemma", type=int, choices=[1, 2])
    p_check.add_argument("paths", nargs="+")
    p_check.add_argument("--horizon", type=int)
    # default: the node count of the space the check enumerates
    p_check.add_argument("--max-nodes", type=int)
    return parser


def _require(doc: Document, cls):
    if not isinstance(doc, cls):
        kind = cls.__name__.removesuffix("Document").lower()
        raise InputError(f"a {kind} file required, got a {type(doc).__name__}")
    return doc


def _cmd_validate(args) -> int:
    doc = load_document(args.path)
    problems: list[str] = []
    if isinstance(doc, SpaceDocument):
        problems.extend(validate_space(doc.space).problems)
        if doc.conf is not None:
            problems.extend(validate_conflicts(doc.space, doc.conf))
        undeclared = sorted(doc.space.messages() - set(doc.messages))
        problems.extend(f"undeclared message: {m}" for m in undeclared)
    elif isinstance(doc, SystemDocument):
        problems.extend(doc.histories.problems())
    elif isinstance(doc, ProtocolDocument):
        pass  # construction already enforces the invariants
    elif isinstance(doc, RunsDocument):
        # the least failing run, found per automaton node and edge
        universe = {
            e.message for g in doc.runs.occurring_states() for _, h in g.items() for e in h
        }
        bad = mp_violations(universe, doc.agents, doc.runs).least()
        if bad is not None:
            report = check_mp(universe, doc.agents, bad)
            for label, problem in (("MP1", report.mp1), ("MP2", report.mp2), ("MP3", report.mp3)):
                if problem:
                    problems.append(f"{label}: {problem}")
    for problem in problems:
        print(problem)
    if problems:
        return EXIT_PROPERTY_FAILED
    print("ok")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    doc = load_document(args.path)
    if args.horizon < 0 or args.max_nodes < 0:
        raise InputError("--horizon and --max-nodes must be non-negative")
    if args.bundles:
        src = _require(doc, SpaceDocument)
        out = BundlesDocument(
            bundles=enumerate_bundles(src.space, src.conf, args.max_nodes)
        )
    elif args.chains:
        src = _require(doc, SpaceDocument)
        chains = enumerate_chain_prefixes(
            src.space, src.conf, args.horizon, args.max_nodes
        )
        out = ChainsDocument(agents=src.space.agents, chains=chains)
    elif args.translate:
        src = _require(doc, SpaceDocument)
        runs = translate(src.space, src.conf, args.horizon, args.max_nodes)
        out = RunsDocument(agents=src.space.agents, horizon=args.horizon, runs=runs)
    elif args.gen_system:
        src = _require(doc, SystemDocument)
        runs = generate_system(src.histories, args.horizon)
        out = RunsDocument(
            agents=src.histories.agents, horizon=args.horizon, runs=runs
        )
    else:
        src = _require(doc, ProtocolDocument)
        runs = generate_runs(src.protocol, args.horizon)
        out = RunsDocument(agents=src.protocol.agents, horizon=args.horizon, runs=runs)
    text = dump_document(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _paths(args, n: int) -> list[Document]:
    if len(args.paths) != n:
        raise InputError(f"this check takes exactly {n} input file(s)")
    return [load_document(p) for p in args.paths]


# check -> (kinds of its input files, the check on the loaded documents,
# then the --horizon keyword when given and --max-nodes or None)
_CHECKS = {
    "theorem 1": ((SpaceDocument,), lambda s, h, n: theorem_1(s.space, max_nodes=n, **h)),
    "theorem 2": ((SpaceDocument,), lambda s, h, n: theorem_2(s.space, max_nodes=n, **h)),
    "theorem 3": (
        (SpaceDocument, SystemDocument),
        lambda s, y, h, n: theorem_3(s.space, y.histories, max_nodes=n),
    ),
    "theorem 4": ((SpaceDocument,), lambda s, h, n: theorem_4(s.space, s.conf, max_nodes=n, **h)),
    "theorem 5": ((SystemDocument,), lambda y, h, n: theorem_5(y.histories, **h)),
    "theorem 6": ((ProtocolDocument,), lambda p, h, n: theorem_6(p.protocol, **h)),
    "theorem 7": ((ProtocolDocument,), lambda p, h, n: theorem_7(p.protocol, max_nodes=n, **h)),
    "lemma 1": ((SpaceDocument,), lambda s, h, n: lemma_1(s.space, s.conf, max_nodes=n)),
    "lemma 2": ((SpaceDocument,), lambda s, h, n: lemma_2(s.space, max_nodes=n)),
}


def _cmd_check(args) -> int:
    if args.equal:
        a, b = _paths(args, 2)
        a = _require(a, RunsDocument)
        b = _require(b, RunsDocument)
        report = systems_equal(a.runs, b.runs)
        if report.equal:
            print("PASS the two run sets are equal")
            return EXIT_OK
        witness = report.witness()
        side = "first" if report.only_in_a else "second"
        print(f"FAIL run sets differ; only in {side} set: {_describe_state(witness.final())}")
        return EXIT_PROPERTY_FAILED

    if args.history_preserving:
        space_doc, runs_doc = _paths(args, 2)
        space_doc = _require(space_doc, SpaceDocument)
        runs_doc = _require(runs_doc, RunsDocument)
        report = check_history_preserving(
            space_doc.space,
            runs_doc.runs,
            node_cap(space_doc.space, args.max_nodes),
            conf=space_doc.conf,
        )
        if report.ok:
            print("PASS histories are preserved in both directions")
            return EXIT_OK
        for agent, history in report.clause1_failures:
            print(f"clause 1: agent {agent} history {[str(e) for e in history]} matches no bundle")
        for agent, bundle, events in report.clause2_failures:
            print(
                f"clause 2: bundle {dict(bundle.heights)} gives agent {agent} "
                f"events {[str(e) for e in events]} matched by no run"
            )
        print("FAIL history preservation is violated")
        return EXIT_PROPERTY_FAILED

    kinds, run = _CHECKS[f"lemma {args.lemma}" if args.lemma else f"theorem {args.theorem}"]
    docs = [_require(doc, cls) for doc, cls in zip(_paths(args, len(kinds)), kinds)]
    horizon = {} if args.horizon is None else {"horizon": args.horizon}
    result = run(*docs, horizon, args.max_nodes)
    print(result.render())
    return EXIT_OK if result.ok else EXIT_PROPERTY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        return _cmd_check(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
