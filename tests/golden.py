"""The golden table of CLI outputs: its cases, how one is run, and a
regenerator.

Each entry of ``golden.json`` is an argv for ``strandlab``, with the exit
code, the sha256 of its stdout and of the file its ``--out`` wrote, and
its stderr, which is empty or strandlab's own ``error:`` line (no case
reaches argparse's usage text, which differs across Python versions).
Paths in an argv are relative to the repository root; ``{out}`` stands
for a fresh file outside the checkout.  `tests/test_golden.py` runs every
entry in-process through `cli.main` and compares.

Run from the repository root to rewrite the table from the code on the
path and print the entries that changed:

    PYTHONPATH=src python3 tests/golden.py

A change that alters bytes on purpose updates the table and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = pathlib.Path(__file__).resolve().parent / "golden.json"

FIXTURES = ["nack_protocol", "nack_space", "nack_system", "ping_space", "r1_choice_protocol",
            "r1_space", "r1_system", "r1_t5_space", "u1u2u3_protocol"]
SPACES = ["nack_space", "ping_space", "r1_space", "r1_t5_space"]
PROTOCOLS = ["nack_protocol", "r1_choice_protocol", "u1u2u3_protocol"]


def _path(name: str) -> str:
    return f"fixtures/{name}.json"


def _file(name: str) -> str:
    """A small hand-written file of the tests, beside the fixtures."""
    return f"tests/files/{name}.json"


def cases() -> list[list[str]]:
    """Every argv of the table, in its order."""
    from strandlab.documents import load_document

    argvs = [["validate", _path(f)] for f in FIXTURES]
    for s in SPACES:
        nodes = str(load_document(ROOT / _path(s)).node_count())
        argvs.append(["enumerate", _path(s), "--bundles"])
        argvs.append(["enumerate", _path(s), "--bundles", "--max-nodes", nodes])
        for check in (["--lemma", "1"], ["--lemma", "2"], ["--theorem", "1"], ["--theorem", "2"]):
            argvs.append(["check", *check, _path(s)])
    argvs += [
        ["check", "--theorem", "3", _path("r1_space"), _path("r1_system")],
        ["check", "--theorem", "3", _path("nack_space"), _path("nack_system")],
        ["check", "--theorem", "4", _path("r1_t5_space")],
        ["check", "--theorem", "5", _path("r1_system")],
        ["check", "--theorem", "5", _path("nack_system")],
        *(["check", "--theorem", "6", _path(p)] for p in PROTOCOLS),
        *(["check", "--theorem", "7", _path(p)] for p in PROTOCOLS),
        ["enumerate", _path("r1_space"), "--chains", "--out", "{out}"],
        ["enumerate", _path("r1_space"), "--translate", "--out", "{out}"],
        ["enumerate", _path("r1_system"), "--gen-system", "--out", "{out}"],
        ["enumerate", _path("nack_protocol"), "--run-protocol", "--out", "{out}"],
        # chains at other horizons and caps: r1_t5 under a cap below its 12
        # nodes has conflicts and steps whose witness map is not the identity
        ["enumerate", _path("r1_t5_space"), "--chains", "--horizon", "3", "--max-nodes", "5",
         "--out", "{out}"],
        ["enumerate", _path("r1_t5_space"), "--translate", "--out", "{out}"],
        ["enumerate", _path("nack_space"), "--chains", "--horizon", "5", "--max-nodes", "4",
         "--out", "{out}"],
        # strandlab's own usage errors
        ["check", "--theorem", "5", _path("r1_space")],
        ["check", "--theorem", "4", _path("r1_space")],
        ["enumerate", _path("r1_space"), "--bundles", "--horizon", "0"],
        ["enumerate", _path("r1_space"), "--bundles", "--max-nodes", "-1"],
        ["check", "--lemma", "1", _path("r1_space"), _path("r1_space")],
        # run sets compared: equal in another order, differing either way,
        # and of two horizons, nonempty and empty
        ["check", "--equal", _file("ping_runs"), _file("ping_runs_reordered")],
        ["check", "--equal", _file("ping_runs"), _file("ping_runs_unreceived")],
        ["check", "--equal", _file("ping_runs_unreceived"), _file("ping_runs")],
        ["check", "--equal", _file("empty_h2"), _file("ping_runs")],
        ["check", "--equal", _file("ping_runs"), _file("ping_runs_h3")],
        ["check", "--equal", _file("empty_h2"), _file("empty_h3")],
        # and of two sets of agents, empty and nonempty
        ["check", "--equal", _file("empty_a"), _file("empty_b")],
        ["check", "--equal", _file("idle_a"), _file("idle_b")],
        # run histories against bundles: preserved, violated, other agents
        ["check", "--history-preserving", _path("ping_space"), _file("ping_runs")],
        ["check", "--history-preserving", _path("ping_space"), _file("ping_runs_unreceived")],
        ["check", "--history-preserving", _path("ping_space"), _file("ping_runs_twice")],
        ["check", "--history-preserving", _path("ping_space"), _file("other-agents")],
        # invalid files and names that need escaping
        ["check", "--lemma", "2", _file("dup")],
        ["validate", _file("undeclared")],
        ["check", "--theorem", "5", _file("undeclared")],
        ["validate", _file("multi")],
        ["check", "--lemma", "1", _file("multi")],
        ["check", "--theorem", "5", _file("collide-system")],
        ["check", "--theorem", "7", _file("collide-protocol")],
        ["validate", _file("spaced-agent")],
        ["check", "--theorem", "5", _file("spaced-agent")],
        # a protocol whose agent spec is a union
        ["validate", _file("union-protocol")],
        ["check", "--theorem", "6", _file("union-protocol")],
        ["check", "--theorem", "7", _file("union-protocol")],
    ]
    return argvs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> dict:
    """The table entry for ``argv``: run through `cli.main` in this
    process, from the repository root, with the default state budget."""
    from strandlab import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp, "out.json")
        real = [str(out) if a == "{out}" else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd, limit = os.getcwd(), os.environ.pop("STRANDLAB_MAX_STATES", None)
        try:
            os.chdir(ROOT)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(real)
        finally:
            os.chdir(cwd)
            if limit is not None:
                os.environ["STRANDLAB_MAX_STATES"] = limit
        entry = {
            "argv": argv,
            "exit": code,
            "stdout_sha256": _sha256(stdout.getvalue().encode("utf-8")),
            "stderr": stderr.getvalue(),
        }
        if "{out}" in argv:
            entry["out_sha256"] = _sha256(out.read_bytes()) if out.exists() else None
    return entry


def load() -> list[dict]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def main() -> int:
    old = {json.dumps(e["argv"]): e for e in load()} if TABLE.exists() else {}
    table = [run(argv) for argv in cases()]
    changed = [e for e in table if old.get(json.dumps(e["argv"]), e) != e]
    new = [e for e in table if json.dumps(e["argv"]) not in old]
    gone = set(old) - {json.dumps(e["argv"]) for e in table}
    lines = ",\n".join(json.dumps(e) for e in table)
    TABLE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    for label, argvs in (("changed", [e["argv"] for e in changed]),
                         ("new", [e["argv"] for e in new]),
                         ("removed", [json.loads(a) for a in sorted(gone)])):
        for argv in argvs:
            print(f"{label}:", " ".join(argv))
    print(f"{len(table)} entries: {len(changed)} changed, {len(new)} new, {len(gone)} removed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
