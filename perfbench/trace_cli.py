"""Run one strandlab command with spans around its public layer functions.

Usage: python3 perfbench/trace_cli.py SPANS_JSON CLI_ARG...

Before calling ``strandlab.cli.main``, this installs wrappers on every
binding of each layer function: the defining module's attribute, the
same-named attribute of every strandlab module that imported it, and
entries of module-level dicts such as ``checks.LEMMAS``.  Nothing under
``src/`` is modified.

* Layer functions and the glue (public functions of ``checks`` and
  ``cli.main``) get one span per call: name, parent span, start, end and
  the size of what the call returned.
* Hot inner functions get counters and summed time instead of spans; their
  time stays in the enclosing span.
* ``chains.step_graph`` calls are also counted as cache hits when they
  return without adding an entry to ``chains._GRAPH_CACHE``.

Spans stay in memory and are written to SPANS_JSON at exit.  A function that
no longer exists is listed under "absent".  Stdout is the command's own.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = {
    "bundles": ("enumerate_bundles",),
    "chains": ("step_graph", "translate", "enumerate_chain_prefixes"),
    "systems": ("generate_system", "systems_equal", "check_history_preserving"),
    "protocols": ("generate_runs",),
    "documents": ("load_document", "dump_document"),
}
HOT = {
    "chains": ("check_step",),
    "protocols": ("tau_step",),
    "systems": ("check_mp",),
}

spans: list[list] = []  # [name, parent index or -1, start, end, out_n]
stack: list[int] = []
hot: dict[str, dict[str, float]] = {}
absent: list[str] = []
cache_hits: list[int | None] = [0]


def _out_n(name: str, args: tuple, result) -> int | None:
    """Bundles, step edges, runs or bytes: whatever the call returned."""
    if name == "documents.load_document":
        return os.path.getsize(args[0]) if args else None
    if isinstance(result, str):
        return len(result.encode("utf-8"))
    if hasattr(result, "successors"):  # StepGraph
        return sum(len(s) for s in result.successors.values())
    if hasattr(result, "only_in_a"):  # EqualityReport
        return len(result.only_in_a) + len(result.only_in_b)
    if hasattr(result, "clause1_failures"):  # HistoryPreservingReport
        return len(result.clause1_failures) + len(result.clause2_failures)
    if hasattr(result, "__len__"):
        return len(result)
    return None


def _spanned(name: str, fn):
    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append([name, stack[-1] if stack else -1, 0.0, 0.0, None])
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index][2:4] = start, end
        spans[index][4] = _out_n(name, args, result)
        return result

    return wrapper


def _counted(name: str, fn):
    stats = hot.setdefault(name, {"calls": 0, "total_s": 0.0, "hits": 0, "states": 0})

    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        stats["total_s"] += perf_counter() - start
        stats["calls"] += 1
        if result is not None:
            stats["hits"] += 1
            if isinstance(result, frozenset):
                stats["states"] += len(result)
        return result

    return wrapper


def _cache_probe(chains, fn):
    """Count step_graph calls that return without adding to the graph cache."""

    def wrapper(*args, **kwargs):
        cache = getattr(chains, "_GRAPH_CACHE", None)
        if cache is None:
            cache_hits[0] = None
            return fn(*args, **kwargs)
        before = len(cache)
        result = fn(*args, **kwargs)
        if cache_hits[0] is not None and len(cache) == before:
            cache_hits[0] += 1
        return result

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every strandlab binding of ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("strandlab"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def install() -> None:
    modules = {
        name: importlib.import_module(f"strandlab.{name}")
        for name in ("bundles", "chains", "systems", "protocols", "documents", "checks", "cli")
    }
    for table, wrap in ((LAYERS, _spanned), (HOT, _counted)):
        for mod_name, functions in table.items():
            for fn_name in functions:
                name = f"{mod_name}.{fn_name}"
                fn = getattr(modules[mod_name], fn_name, None)
                if not callable(fn):
                    absent.append(name)
                    continue
                wrapped = wrap(name, fn)
                if name == "chains.step_graph":
                    wrapped = _cache_probe(modules["chains"], wrapped)
                _rebind(fn, wrapped)
    checks = modules["checks"]
    for fn_name, fn in list(vars(checks).items()):
        if inspect.isfunction(fn) and fn.__module__ == checks.__name__ and not fn_name.startswith("_"):
            _rebind(fn, _spanned(f"checks.{fn_name}", fn))
    modules["cli"].main = _spanned("cli.main", modules["cli"].main)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    install()
    from strandlab import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": spans, "hot": hot, "absent": absent, "cache_hits": cache_hits[0]},
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
