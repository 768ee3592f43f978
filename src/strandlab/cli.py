"""Command-line interface.

Three subcommands over the JSON model files described in `documents`:

  validate PATH                      well-formedness report
  enumerate PATH --bundles|--chains|--translate|--gen-system|--run-protocol
  check --equal|--history-preserving|--theorem N|--lemma N PATH...

Exit codes: 0 when everything holds, 1 when a modeled property fails,
2 on usage, parse, or budget errors, and also 2, silently, when stdout is
closed before all output is written.  Output is deterministic: the same
inputs and flags always produce the same bytes.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .bundles import enumerate_bundles, validate_conflicts
from .chains import enumerate_chain_prefixes, translate
from .checks import (
    CheckResult, _describe_state, lemma_1, lemma_2, node_cap,
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


def _kind(cls) -> str:
    return cls.__name__.removesuffix("Document").lower()


def _require(doc: Document, cls):
    if not isinstance(doc, cls):
        raise InputError(f"a {_kind(cls)} file required, got a {_kind(type(doc))} file")
    return doc


def _write_stdout(text: str) -> None:
    """All of ``text`` to stdout, or BrokenPipeError.  An unbuffered
    stdout (``python -u``) takes only part of a write to a pipe whose
    reader has gone, and its text layer drops the rest without an error,
    so the bytes go to the file descriptor until every one is taken."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, io.UnsupportedOperation):  # an in-memory stream
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[os.write(fd, data):]


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
        _write_stdout(text)
    return EXIT_OK


def _paths(args, n: int) -> list[Document]:
    if len(args.paths) != n:
        raise InputError(f"this check takes exactly {n} input file(s)")
    return [load_document(p) for p in args.paths]


def _equal(a: RunsDocument, b: RunsDocument) -> CheckResult:
    report = systems_equal(a.runs, b.runs)
    if report.equal:
        return CheckResult("the two run sets are equal", True, ())
    side = "first" if report.only_in_a else "second"
    witness = _describe_state(report.witness().final())
    return CheckResult(f"run sets differ; only in {side} set: {witness}", False, ())


def _history_preserving(s: SpaceDocument, r: RunsDocument, max_nodes=None) -> CheckResult:
    """The verdict; the failures are printed above it, one a line."""
    report = check_history_preserving(
        s.space, r.runs, node_cap(s.space, max_nodes), conf=s.conf
    )
    if report.ok:
        return CheckResult("histories are preserved in both directions", True, ())
    for agent, history in report.clause1_failures:
        print(f"clause 1: agent {agent} history {[str(e) for e in history]} matches no bundle")
    for agent, bundle, events in report.clause2_failures:
        print(
            f"clause 2: bundle {dict(bundle.heights)} gives agent {agent} "
            f"events {[str(e) for e in events]} matched by no run"
        )
    return CheckResult("history preservation is violated", False, ())


# the check's option -> (kinds of its input files, the options among
# --horizon and --max-nodes that it takes, the check on the loaded
# documents with those of its options that were given, as keywords)
_CHECKS = {
    "--equal": ((RunsDocument, RunsDocument), (), _equal),
    "--history-preserving": ((SpaceDocument, RunsDocument), ("max_nodes",), _history_preserving),
    "--theorem 1": ((SpaceDocument,), ("horizon", "max_nodes"),
                    lambda s, **o: theorem_1(s.space, **o)),
    "--theorem 2": ((SpaceDocument,), ("horizon", "max_nodes"),
                    lambda s, **o: theorem_2(s.space, **o)),
    "--theorem 3": ((SpaceDocument, SystemDocument), ("max_nodes",),
                    lambda s, y, **o: theorem_3(s.space, y.histories, **o)),
    "--theorem 4": ((SpaceDocument,), ("horizon", "max_nodes"),
                    lambda s, **o: theorem_4(s.space, s.conf, **o)),
    "--theorem 5": ((SystemDocument,), ("horizon",), lambda y, **o: theorem_5(y.histories, **o)),
    "--theorem 6": ((ProtocolDocument,), ("horizon",), lambda p, **o: theorem_6(p.protocol, **o)),
    "--theorem 7": ((ProtocolDocument,), ("horizon", "max_nodes"),
                    lambda p, **o: theorem_7(p.protocol, **o)),
    "--lemma 1": ((SpaceDocument,), ("max_nodes",), lambda s, **o: lemma_1(s.space, s.conf, **o)),
    "--lemma 2": ((SpaceDocument,), ("max_nodes",), lambda s, **o: lemma_2(s.space, **o)),
}


def _cmd_check(args) -> int:
    if args.equal:
        name = "--equal"
    elif args.history_preserving:
        name = "--history-preserving"
    else:
        name = f"--lemma {args.lemma}" if args.lemma else f"--theorem {args.theorem}"
    kinds, takes, run = _CHECKS[name]
    options = {}
    for option in ("horizon", "max_nodes"):
        value = getattr(args, option)
        if value is None:
            continue
        if option not in takes:
            flag = "--" + option.replace("_", "-")
            raise InputError(f"check {name} does not take {flag}")
        options[option] = value
    docs = [_require(doc, cls) for doc, cls in zip(_paths(args, len(kinds)), kinds)]
    result = run(*docs, **options)
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
            code = _cmd_validate(args)
        elif args.command == "enumerate":
            code = _cmd_enumerate(args)
        else:
            code = _cmd_check(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: what is still buffered goes to
        # the null device, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
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
