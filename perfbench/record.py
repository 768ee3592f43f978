"""Record the reference digests of every benchmark command in expected.json.

Usage: python3 perfbench/record.py

Runs each workload's commands once, with inputs made from seed 0, and
stores the sha256 of stdout and of the --out file; the digests hold for
every seed.  The digests in expected.json were recorded at the commit
that introduced the benchmark; strandlab's output must stay byte-identical,
so re-record only for an intended and reviewed output change.  A command
whose exit code is not the one the paper predicts is not recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import EXPECTED, ROOT, WORK_ROOT, sha256, spawn


def main() -> int:
    table: dict[str, dict] = {}
    wrong = 0
    WORK_ROOT.mkdir(exist_ok=True)
    for name, make in workloads.WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT))
        try:
            table[name] = {}
            for cmd in make(ROOT, workdir, 0):
                stdout = workdir / ".stdout"
                argv = [sys.executable, "-m", "strandlab.cli", *cmd.args]
                wall, _, _, code = spawn(argv, workdir, stdout, 170.0)
                print(f"{name:14s} {cmd.id:24s} exit {code} {wall:7.3f}s")
                if code != cmd.exit:
                    print(f"  not recorded: the paper predicts exit {cmd.exit}")
                    wrong += 1
                    continue
                entry = {"stdout": sha256(stdout)}
                if cmd.out is not None:
                    entry["out"] = sha256(workdir / cmd.out)
                table[name][cmd.id] = entry
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
