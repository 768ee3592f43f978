"""Command-line interface.

Three subcommands over the JSON model files described in `documents`:

  validate PATH                      well-formedness report
  enumerate PATH --bundles|--chains|--translate|--gen-system|--run-protocol
  check --equal|--history-preserving|--theorem N|--lemma N PATH...

A mode takes only the options it uses.  Of enumerate's modes, all but
--bundles take --horizon (default 4), and --bundles, --chains and
--translate take --max-nodes (default 8); check's modes are in `_CHECKS`.
Any other option exits 2, and so does a negative value, with the same
message in both subcommands ("error: --horizon must be non-negative").
Both exit 2 on a file that parses into no well-formed value (see
`documents`), with its first problem as the message; `validate` prints
every problem and exits 1.  Only `validate` checks runs for MP1-MP3.

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

from .bundles import enumerate_bundles
from .chains import enumerate_chain_prefixes, translate
from .checks import (
    CheckResult, _describe_state, lemma_1, lemma_2, node_cap,
    theorem_1, theorem_2, theorem_3, theorem_4, theorem_5, theorem_6, theorem_7,
)
from .core import StrandSpace
from .errors import IllFormedError, InputError, StrandlabError
from .documents import BundlesDocument, ChainsDocument, Document, dump_document, load_document
from .protocols import JointProtocol, generate_runs
from .systems import (
    HistorySet,
    RunAutomaton,
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
    p_validate.set_defaults(run=_cmd_validate)

    # as for check, a mode flag stores its own spelling, the key of its
    # table entry, and the input files are args.paths
    p_enum = sub.add_parser("enumerate", help="enumerate bundles, chains, or runs")
    p_enum.set_defaults(run=_cmd_enumerate)
    p_enum.add_argument("paths", nargs=1, metavar="path")
    mode = p_enum.add_mutually_exclusive_group(required=True)
    for flag in _ENUMERATIONS:
        mode.add_argument(flag, dest="mode", action="store_const", const=flag)
    p_enum.add_argument("--horizon", type=int)
    p_enum.add_argument("--max-nodes", type=int)
    p_enum.add_argument("--out")

    p_check = sub.add_parser("check", help="check an equivalence, theorem, or lemma")
    p_check.set_defaults(run=_cmd_check)
    what = p_check.add_mutually_exclusive_group(required=True)
    for flag in ("--equal", "--history-preserving"):
        what.add_argument(flag, dest="mode", action="store_const", const=flag)
    what.add_argument("--theorem", type=int, choices=sorted(range(1, 8)))
    what.add_argument("--lemma", type=int, choices=[1, 2])
    p_check.add_argument("paths", nargs="+")
    p_check.add_argument("--horizon", type=int)
    p_check.add_argument("--max-nodes", type=int)
    return parser


# each type a file parses to, by the name of its kind
_KINDS = {StrandSpace: "space", HistorySet: "system", JointProtocol: "protocol",
          RunAutomaton: "runs", BundlesDocument: "bundles", ChainsDocument: "chains"}


def _require(doc: Document, cls):
    """``doc``, provided it is a ``cls`` file."""
    if not isinstance(doc, cls):
        raise InputError(f"a {_KINDS[cls]} file required, got a {_KINDS[type(doc)]} file")
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


def _runs_problems(runs: RunAutomaton) -> list[str]:
    # the least failing run, found per automaton node and edge
    universe = {e.message for g in runs.occurring_states() for _, h in g.items() for e in h}
    bad = mp_violations(universe, runs).least()
    if bad is None:
        return []
    report = check_mp(universe, runs.agents, bad)
    return [
        f"{label}: {problem}"
        for label, problem in (("MP1", report.mp1), ("MP2", report.mp2), ("MP3", report.mp3))
        if problem
    ]


def _cmd_validate(args) -> int:
    # only here are runs checked for MP1-MP3, not in check --equal
    try:
        doc = load_document(args.path)
    except IllFormedError as exc:
        problems = exc.problems
    else:
        problems = _runs_problems(doc) if isinstance(doc, RunAutomaton) else []
    for problem in problems:
        print(problem)
    if problems:
        return EXIT_PROPERTY_FAILED
    print("ok")
    return EXIT_OK


def _run(command: str, table: dict, name: str, args):
    """The mode ``name`` of ``table`` on the files ``args.paths``: each
    loaded and of its kind, with those of --horizon and --max-nodes that
    were given, provided the mode takes them and they are not negative."""
    kinds, takes, call = table[name]
    options = {}
    for option in ("horizon", "max_nodes"):
        value = getattr(args, option)
        if value is None:
            continue
        flag = "--" + option.replace("_", "-")
        if option not in takes:
            raise InputError(f"{command} {name} does not take {flag}")
        if value < 0:
            raise InputError(f"{flag} must be non-negative")
        options[option] = value
    if len(args.paths) != len(kinds):
        raise InputError(f"{command} {name} takes exactly {len(kinds)} input file(s)")
    docs = [_require(load_document(p), cls) for p, cls in zip(args.paths, kinds)]
    return call(*docs, **options)


# Each table maps a mode to (kinds of its input files, the options among
# --horizon and --max-nodes that it takes, the call on what the files load
# to with those of its options that were given, as keywords).  A call reaches
# the layer functions through this module's globals.

# enumerate's defaults: horizon 4, bundles of at most 8 nodes
_ENUMERATIONS = {
    "--bundles": ((StrandSpace,), ("max_nodes",), lambda s, max_nodes=8:
        BundlesDocument(enumerate_bundles(s, max_nodes))),
    "--chains": ((StrandSpace,), ("horizon", "max_nodes"), lambda s, horizon=4, max_nodes=8:
        ChainsDocument(s.agents, enumerate_chain_prefixes(s, horizon, max_nodes))),
    "--translate": ((StrandSpace,), ("horizon", "max_nodes"), lambda s, horizon=4, max_nodes=8:
        translate(s, horizon, max_nodes)),
    "--gen-system": ((HistorySet,), ("horizon",), lambda y, horizon=4: generate_system(y, horizon)),
    "--run-protocol": ((JointProtocol,), ("horizon",), lambda p, horizon=4:
        generate_runs(p, horizon)),
}


def _cmd_enumerate(args) -> int:
    # the document is built before --out is opened, so a failed
    # enumeration leaves no truncated file
    text = dump_document(_run("enumerate", _ENUMERATIONS, args.mode, args))
    if not args.out:
        _write_stdout(text)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


def _equal(a: RunAutomaton, b: RunAutomaton) -> CheckResult:
    report = systems_equal(a, b)
    if report.equal:
        return CheckResult("the two run sets are equal", True, ())
    side = "first" if report.only_in_a else "second"
    witness = _describe_state(report.witness().final())
    return CheckResult(f"run sets differ; only in {side} set: {witness}", False, ())


def _history_preserving(s: StrandSpace, r: RunAutomaton, max_nodes=None) -> CheckResult:
    """The verdict; the failures are printed above it, one a line."""
    report = check_history_preserving(s, r, node_cap(s, max_nodes))
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


# check's defaults are the check functions' own; --max-nodes defaults to
# the node count of the space the check enumerates
_CHECKS = {
    "--equal": ((RunAutomaton, RunAutomaton), (), _equal),
    "--history-preserving": ((StrandSpace, RunAutomaton), ("max_nodes",), _history_preserving),
    "--theorem 1": ((StrandSpace,), ("horizon", "max_nodes"), lambda s, **o: theorem_1(s, **o)),
    "--theorem 2": ((StrandSpace,), ("horizon", "max_nodes"), lambda s, **o: theorem_2(s, **o)),
    "--theorem 3": ((StrandSpace, HistorySet), ("max_nodes",),
                    lambda s, y, **o: theorem_3(s, y, **o)),
    "--theorem 4": ((StrandSpace,), ("horizon", "max_nodes"), lambda s, **o: theorem_4(s, **o)),
    "--theorem 5": ((HistorySet,), ("horizon",), lambda y, **o: theorem_5(y, **o)),
    "--theorem 6": ((JointProtocol,), ("horizon",), lambda p, **o: theorem_6(p, **o)),
    "--theorem 7": ((JointProtocol,), ("horizon", "max_nodes"), lambda p, **o: theorem_7(p, **o)),
    "--lemma 1": ((StrandSpace,), ("max_nodes",), lambda s, **o: lemma_1(s, **o)),
    "--lemma 2": ((StrandSpace,), ("max_nodes",), lambda s, **o: lemma_2(s, **o)),
}


def _cmd_check(args) -> int:
    name = args.mode or (f"--lemma {args.lemma}" if args.lemma else f"--theorem {args.theorem}")
    result = _run("check", _CHECKS, name, args)
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
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: what is still buffered goes to
        # the null device, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except StrandlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
