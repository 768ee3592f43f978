"""Self-test: a wrong digest or a wrong exit code is counted as a failure.

Usage: python3 perfbench/selftest.py

Runs theorem 1 on the ping fixture three times in one pass, untraced and
traced: once as recorded, once against a wrong stdout digest and once
expecting the wrong exit code.  Exits 0 when exactly the last two of each
pass are counted in fail_ratio, and when the metrics run.py reports are
the ones BENCHMARK.json declares, with the same units.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from run import END_TO_END, EXPECTED, PER_LAYER_UNITS, ROOT, WORK_ROOT, failed, run_pass


def declared_metrics_match() -> bool:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, reported in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER_UNITS)):
        units = {m["name"]: m["unit"] for m in declared[key]}
        if units != reported:
            print(f"{key} in BENCHMARK.json differs from run.py")
            return False
    return True


def main() -> int:
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))["verdicts"]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT))
    try:
        (theorem_1,) = [c for c in workloads.verdicts(ROOT, workdir, 0) if c.id == "theorem-1"]
        commands = [
            theorem_1,
            dataclasses.replace(theorem_1, id="wrong-digest"),
            dataclasses.replace(theorem_1, id="wrong-exit", exit=workloads.DIFFERS),
        ]
        expected = {
            "theorem-1": recorded["theorem-1"],
            "wrong-digest": {"stdout": "0" * 64},
            "wrong-exit": recorded["theorem-1"],
        }
        ok = declared_metrics_match()
        for traced in (False, True):
            outcomes = run_pass(commands, workdir, expected, traced, perf_counter() + 60).outcomes
            counted = [o.id for o in failed(outcomes)]
            for o in outcomes:
                print(f"trace {int(traced)} {o.id:13s} {o.problem or 'ok'}")
            print(f"trace {int(traced)} fail_ratio {len(counted)}/{len(outcomes)}")
            ok &= counted == ["wrong-digest", "wrong-exit"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
