"""strandlab benchmark: end-to-end and per-layer numbers of CLI workloads.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload verdicts --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

A run sets the workload's inputs up three times (generate from the seed,
then ``strandlab validate`` each file) and reports the median set-up time.
It then replays the workload's command list in passes until ``--seconds``
would be exceeded (at least one pass).  Every command runs the real CLI in
a fresh interpreter, one at a time: a closed loop with one client, so each
command starts with cold caches.  Every exit code, stdout and ``--out`` file
is checked against ``expected.json``.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates an untraced and a traced pass (``trace_cli.py``)
and reports the per-layer metrics and the tracing overhead.

The human-readable table comes first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
WORK_ROOT = ROOT / ".perfbench_work"  # inputs and outputs of runs; removed after each
SETUPS = 3
RUN_LIMIT_S = 170  # a run must exit within 180 s; commands past this are killed

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_cmd_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_FUNCTIONS = {
    "bundles.enumerate_bundles": "bundles",
    "chains.step_graph": "edges",
    "chains.translate": "runs",
    "chains.enumerate_chain_prefixes": "chains",
    "systems.generate_system": "runs",
    "systems.systems_equal": "runs",
    "systems.check_history_preserving": "failures",
    "protocols.generate_runs": "runs",
    "documents.load_document": "bytes",
    "documents.dump_document": "bytes",
}


@dataclass
class Outcome:
    """One command of a pass: its cost and whether its answer was right."""

    id: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problem: str | None  # None when exit code and digests match
    trace: dict | None = None


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)
    traced: bool = False

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("STRANDLAB_MAX_STATES", None)  # the default budget, as users run it
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], cwd: Path, stdout: Path, timeout: float):
    """Run argv to completion; (wall s, cpu s, max rss MB, exit code or None on timeout)."""
    with open(stdout, "wb") as out, open(cwd / ".stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else proc.returncode
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code


def check(cmd: workloads.Command, code: int | None, stdout: Path, workdir: Path,
          expected: dict) -> str | None:
    """Why the command's answer is wrong, or None."""
    if code is None:
        return "killed at the run's time limit"
    if code != cmd.exit:
        return f"exit {code}, expected {cmd.exit}"
    want = expected.get(cmd.id)
    if want is None:
        return "no recorded digest"
    if sha256(stdout) != want["stdout"]:
        return "stdout digest differs"
    if cmd.out is not None:
        out = workdir / cmd.out
        if not out.exists() or sha256(out) != want["out"]:
            return f"{cmd.out} digest differs"
    return None


def failed(outcomes: list[Outcome]) -> list[Outcome]:
    """Commands with a wrong exit code or digest, or killed: the numerator of fail_ratio."""
    return [o for o in outcomes if o.problem is not None]


def run_pass(commands, workdir: Path, expected: dict, traced: bool, hard_deadline: float) -> Pass:
    result = Pass(traced=traced)
    for cmd in commands:
        stdout = workdir / ".stdout"
        spans = workdir / ".spans.json"
        if traced:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "trace_cli.py"), str(spans), *cmd.args]
        else:
            argv = [sys.executable, "-m", "strandlab.cli", *cmd.args]
        if cmd.out is not None:
            (workdir / cmd.out).unlink(missing_ok=True)  # each pass must write its own file
        wall, cpu, rss, code = spawn(argv, workdir, stdout, hard_deadline - perf_counter())
        problem = check(cmd, code, stdout, workdir, expected)
        trace = None
        if traced and spans.exists():
            trace = json.loads(spans.read_text(encoding="utf-8"))
        elif traced and problem is None:
            problem = "no trace written"
        result.outcomes.append(Outcome(cmd.id, wall, cpu, rss, problem, trace))
        if code is None:
            break
    return result


def set_up(workload: str, workdir: Path, seed: int, hard_deadline: float):
    """Generate and validate the inputs; (seconds, commands, validation outcomes)."""
    workdir.mkdir(parents=True)
    start = perf_counter()
    commands = workloads.WORKLOADS[workload](ROOT, workdir, seed)
    outcomes = []
    for name in sorted(p.name for p in workdir.glob("*.json")):
        stdout = workdir / ".stdout"
        argv = [sys.executable, "-m", "strandlab.cli", "validate", name]
        wall, cpu, rss, code = spawn(argv, workdir, stdout, hard_deadline - perf_counter())
        ok = code == 0 and stdout.read_bytes() == b"ok\n"
        outcomes.append(Outcome(f"validate {name}", wall, cpu, rss, None if ok else "invalid input"))
    return perf_counter() - start, commands, outcomes


# --- metrics -------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else None


def end_to_end(setups: list[float], passes: list[Pass]) -> dict[str, tuple[float, int]]:
    """Metric -> (median, sample count)."""
    per_pass = {
        "wall_s": [p.wall_s for p in passes],
        "slowest_cmd_s": [max(o.wall_s for o in p.outcomes) for p in passes],
        "cpu_s": [sum(o.cpu_s for o in p.outcomes) for p in passes],
        "peak_rss_mb": [max(o.rss_mb for o in p.outcomes) for p in passes],
    }
    out = {"setup_s": (median(setups), len(setups))}
    out.update({name: (median(v), len(v)) for name, v in per_pass.items()})
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(spans)]


def layer_stats(p: Pass) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    stats: dict[str, float | None] = {}
    absent: set[str] = set()
    hot: dict[str, dict[str, float]] = {}
    cache_hits: int | None = 0
    glue = {"checks": 0.0, "cli": 0.0}
    startup = []
    for layer in LAYER_FUNCTIONS:
        for stat in ("calls", "self_s", "out_n"):
            stats[f"{layer}.{stat}"] = 0
    for o in p.outcomes:
        trace = o.trace
        if trace is None:
            continue
        absent.update(trace["absent"])
        if trace["cache_hits"] is None or cache_hits is None:
            cache_hits = None
        else:
            cache_hits += trace["cache_hits"]
        for name, counters in trace["hot"].items():
            acc = hot.setdefault(name, {})
            for key, value in counters.items():
                acc[key] = acc.get(key, 0) + value
        spans = trace["spans"]
        for (name, _, start, end, out_n), self_s in zip(spans, self_times(spans)):
            if name in LAYER_FUNCTIONS:
                stats[f"{name}.calls"] += 1
                stats[f"{name}.self_s"] += self_s
                stats[f"{name}.out_n"] += out_n or 0
            else:
                glue[name.split(".")[0]] += self_s
            if name == "cli.main":
                startup.append(o.wall_s - (end - start))
    for layer in absent:
        for stat in ("calls", "self_s", "out_n"):
            stats[f"{layer}.{stat}"] = None

    def counter(name, key):
        return None if name in absent or name not in hot else hot[name][key]

    def ratio(num, den):
        return None if num is None or den is None else (num / den if den else 0.0)

    stats["checks.self_s"] = glue["checks"]
    stats["cli.self_s"] = glue["cli"]
    stats["cli.startup_s"] = median(startup)
    stats["chains.check_step.calls"] = counter("chains.check_step", "calls")
    stats["chains.check_step.hits"] = counter("chains.check_step", "hits")
    stats["chains.step_graph.yield"] = ratio(stats["chains.check_step.hits"], stats["chains.check_step.calls"])
    stats["chains.step_graph.cache_hits"] = None if "chains.step_graph" in absent else cache_hits
    stats["protocols.tau_step.calls"] = counter("protocols.tau_step", "calls")
    stats["protocols.tau_step.states"] = counter("protocols.tau_step", "states")
    stats["systems.check_mp.calls"] = counter("systems.check_mp", "calls")
    stats["systems.check_mp.total_s"] = counter("systems.check_mp", "total_s")
    for fn in ("dump_document", "load_document"):
        layer = f"documents.{fn}"
        nbytes, secs = stats[f"{layer}.out_n"], stats[f"{layer}.self_s"]
        stats[f"{layer}.mb_per_s"] = ratio(None if nbytes is None else nbytes / 1e6, secs)
    return stats


PER_LAYER_UNITS = {
    **{f"{layer}.calls": "count" for layer in LAYER_FUNCTIONS},
    **{f"{layer}.self_s": "s" for layer in LAYER_FUNCTIONS},
    **{f"{layer}.out_n": unit for layer, unit in LAYER_FUNCTIONS.items()},
    "checks.self_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "chains.check_step.calls": "count",
    "chains.check_step.hits": "count",
    "chains.step_graph.yield": "ratio",
    "chains.step_graph.cache_hits": "count",
    "protocols.tau_step.calls": "count",
    "protocols.tau_step.states": "states",
    "systems.check_mp.calls": "count",
    "systems.check_mp.total_s": "s",
    "documents.dump_document.mb_per_s": "MB/s",
    "documents.load_document.mb_per_s": "MB/s",
    "trace.overhead_ratio": "ratio",
}


def per_layer(passes: list[Pass], rows: list[dict]) -> dict[str, tuple[float | None, int]]:
    """Metric -> (median over the traced passes' layer_stats rows, sample count)."""
    traced = [p.wall_s for p in passes if p.traced]
    plain = [p.wall_s for p in passes if not p.traced]
    out = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_ratio":
            out[name] = (median(traced) / median(plain), len(traced))
            continue
        values = [r[name] for r in rows]
        out[name] = (None if None in values else median(values), len(values))
    return out


def shares(passes: list[Pass], rows: list[dict]) -> list[tuple[str, float]]:
    """Self-time share of each layer and of the glue in the traced passes."""
    wall = sum(p.wall_s for p in passes if p.traced)
    totals = {
        name: sum(r[f"{name}.self_s"] or 0.0 for r in rows)
        for name in (*LAYER_FUNCTIONS, "checks", "cli")
    }
    return sorted(((k, v / wall) for k, v in totals.items()), key=lambda kv: -kv[1])


# --- runs ----------------------------------------------------------------


def environment() -> str:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, commit {commit}"


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    started = perf_counter()
    hard_deadline = started + RUN_LIMIT_S
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(workload, {})
    WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT))
    try:
        setups, checked = [], []
        for i in range(SETUPS):
            workdir = scratch / f"setup{i}"
            secs, commands, validations = set_up(workload, workdir, seed, hard_deadline)
            setups.append(secs)
            checked += validations
            if i + 1 < SETUPS:
                shutil.rmtree(workdir)

        deadline = perf_counter() + seconds
        passes: list[Pass] = []
        while True:
            group = [run_pass(commands, workdir, expected, False, hard_deadline)]
            if traced:
                group.append(run_pass(commands, workdir, expected, True, hard_deadline))
            passes += group
            checked += [o for p in group for o in p.outcomes]
            timed_out = any(len(p.outcomes) < len(commands) for p in group)
            if timed_out or perf_counter() + sum(p.wall_s for p in group) > deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = failed(checked)
    complete = [p for p in passes if len(p.outcomes) == len(commands)]
    rows = [layer_stats(p) for p in complete if p.traced]
    if traced:
        metrics = per_layer(complete, rows) if rows else {}
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(setups, complete) if complete else {}
        units = END_TO_END

    print(f"# workload {workload}, seed {seed}, trace {int(traced)}: {environment()}")
    print(f"# {len(passes)} passes of {len(commands)} commands; "
          f"fail_ratio {len(failures)}/{len(checked)} = {len(failures) / len(checked):.4f}")
    print("# pass wall_s: " + " ".join(f"{p.wall_s:.3f}{'t' if p.traced else ''}" for p in passes))
    for cmd in commands:
        walls = [f"{o.wall_s:.3f}" for p in passes if not p.traced for o in p.outcomes if o.id == cmd.id]
        print(f"# {cmd.id} wall_s: {' '.join(walls)}")
    for o in failures[:10]:
        print(f"# FAILED {o.id}: {o.problem}")
    for name, (value, n) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:42s} {shown:>14s} {units[name]:8s} n={n}")
    if rows:
        top = ", ".join(f"{k} {v:.1%}" for k, v in shares(complete, rows)[:4])
        print(f"# self-time share of traced wall: {top}")
    return {
        "correct": not failures and len(metrics) == len(units),
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "strandlab" / "cli.py", ROOT / "fixtures", EXPECTED):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full strandlab checkout",
                  file=sys.stderr)
            return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
