"""Model-file parsing and serialization.

One JSON schema family with a top-level "kind" covers every document the
tools read or write.  A model file parses to its model, and the model
dumps back to the file; bundles and chains, which have no model type of
their own, parse to a `BundlesDocument` or `ChainsDocument`:

  space / extended-space                           -> StrandSpace
      {"kind", "messages": [...], "agents": [...],
       "strands": [{"id", "agent", "trace": ["+u", ...]}],
       "conflicts": [["s1", "s2"], ...]}        (conflicts optional)
  system                                           -> HistorySet
      {"kind", "agents": [...], "histories": {agent: [["sent u", ...], ...]}}
  protocol                                         -> JointProtocol
      {"kind", "messages": [...], "agents": {agent: spec}}
      spec ::= {"monotone": ["sent u", ...]}
             | {"union": [spec, ...]}
             | {"table": [{"history": [...], "actions": ["send u", ...]}],
                "default": ["no-op"]}
  runs                                             -> RunAutomaton
      {"kind", "agents": [...], "horizon": T,
       "runs": [[{agent: ["sent u", ...]}, ...], ...]}
  bundles                                          -> BundlesDocument
      {"kind", "bundles": [{"heights": {sid: h},
                            "edges": [[[sid, i], [sid, j]], ...]}]}
  chains                                           -> ChainsDocument
      {"kind", "agents": [...],
       "chains": [{"bundles": [...],
                   "steps": [{"f": {s: t},
                              "extensions": [{"agent", "strand", "event"}]}]}]}

A space file's "messages" are checked, not kept: a space dumps the
messages its strands use.  Every kind's agent names are kept sorted and
without repeats.  A space with conflicts dumps as an extended-space.

Signed terms render as "+u"/"-u", events as "sent u"/"recv u", actions as
"send u"/"no-op".  Serialization is deterministic (sorted keys and
collections), so identical values always produce identical bytes, and
every emitted document parses back to the value it came from.

Runs and chains documents repeat a few distinct values many times, so
they are held in memory about once per distinct value, beside one copy of
their text.  Reading a runs document, `json.loads` returns one shared
object for equal JSON objects whose every value is a list of strings (its
global states), and each such object is parsed once: the graph in memory
is the distinct states plus one list of references per run, and the
`RunAutomaton` is built over shared states and events.  Each distinct
bundle and step of a chains document is one object that every chain
shares.  Dumping a runs or chains document encodes each distinct state,
bundle or step once and appends references to that text, between shared
brackets and separators, to one list of pieces, joined once; the bytes
are those of one `json.dumps` of the whole body.

Parsing raises SchemaError for structural problems (bad JSON, wrong
shapes, unparseable tokens) and for a system's histories of an agent it
does not declare, which a `HistorySet` could not tell from a declared
one.  An ill-formed space, history set or protocol raises its
`IllFormedError`, listing every problem.  A space's conflict pairs that
name an unknown strand or span two agents are the space's own problems,
listed after its other ones, since the relation is a field of the
`StrandSpace` (in the library as here).  A space file then lists its
declared messages that are not tokens and its undeclared messages, and a
system file its agent names that are not tokens (theorem 5 makes strand
ids of them) after the history set's problems.  A runs file may still
break MP1-MP3.
"""

from __future__ import annotations

import json
from functools import cache
from typing import Any, Callable, Iterable, NamedTuple

from .bundles import Bundle
from .chains import ChainPrefix, StepWitness
from .core import Event, GlobalState, Node, SignedTerm, Strand, StrandSpace, token_problems
from .errors import IllFormedError, InputError, SchemaError
from .protocols import (
    NOOP,
    Action,
    JointProtocol,
    MonotoneSpec,
    ProtocolSpec,
    TableSpec,
    UnionSpec,
    send,
)
from .systems import HistorySet, RunAutomaton, RunPrefix

# --- token-level parsers (a token renders as its str) -------------------


def parse_term(s: Any) -> SignedTerm:
    if not isinstance(s, str) or len(s) < 2 or s[0] not in "+-":
        raise SchemaError(f"expected a signed term like '+u' or '-u', got {s!r}")
    return SignedTerm(s[0], s[1:])


def parse_event(s: Any) -> Event:
    if isinstance(s, str):
        parts = s.split(" ")
        if len(parts) == 2 and parts[0] in ("sent", "recv"):
            return Event(parts[0], parts[1])
    raise SchemaError(f"expected an event like 'sent u' or 'recv u', got {s!r}")


def parse_action(s: Any) -> Action:
    if s == "no-op":
        return NOOP
    if isinstance(s, str):
        parts = s.split(" ")
        if len(parts) == 2 and parts[0] == "send":
            return send(parts[1])
    raise SchemaError(f"expected an action like 'send u' or 'no-op', got {s!r}")


# --- documents without a model type -------------------------------------


class BundlesDocument(NamedTuple):
    bundles: tuple[Bundle, ...]


class ChainsDocument(NamedTuple):
    agents: tuple[str, ...]
    chains: tuple[ChainPrefix, ...]


Document = (
    StrandSpace | HistorySet | JointProtocol | RunAutomaton | BundlesDocument | ChainsDocument
)


# --- helpers ------------------------------------------------------------


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _str_list(value: Any, what: str) -> list[str]:
    _expect(
        isinstance(value, list) and all(isinstance(x, str) for x in value),
        f"{what} must be a list of strings",
    )
    return value


def _obj(value: Any, what: str) -> dict:
    _expect(isinstance(value, dict), f"{what} must be an object")
    return value


def _list(value: Any, what: str) -> list:
    _expect(isinstance(value, list), f"{what} must be a list")
    return value


def _nat(value: Any, what: str) -> int:
    # bool is an int subclass, but true/false is not a count
    _expect(type(value) is int and value >= 0, f"{what} must be an integer >= 0")
    return value


# --- parsers ------------------------------------------------------------


_STR = {str}  # the member types of a list of strings


def _shared_objects() -> Callable[[dict], dict]:
    """A `json.loads` object hook that returns one shared object for equal
    JSON objects whose every value is a list of strings, the global states
    of a runs document, and any other object as it is (so a bool is never
    merged with an int)."""
    memo: dict[tuple, dict] = {}

    def hook(obj: dict) -> dict:
        key: list = []
        for k, v in obj.items():
            if type(v) is not list or not _STR.issuperset(map(type, v)):
                return obj
            key += (k, tuple(v))
        return memo.setdefault(tuple(key), obj)

    return hook


def parse_document(text: str) -> Document:
    try:
        try:
            body = json.loads(text, object_hook=_shared_objects())
        except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
            raise SchemaError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise SchemaError("JSON nested too deeply to parse") from exc
        body = _obj(body, "document")
        kind = body.get("kind")
        _expect(kind in KINDS, f"kind must be one of {KINDS}, got {kind!r}")
        return _PARSERS[kind](body)
    except IllFormedError:
        raise
    except InputError as exc:
        # Constructor preconditions double as schema constraints here.
        raise SchemaError(str(exc)) from exc


def load_document(path) -> Document:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_document(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _parse_space(body: dict) -> StrandSpace:
    messages = _str_list(body.get("messages", []), "messages")
    agents = _str_list(body.get("agents", []), "agents")
    strands = []
    assignment = {}
    for raw in _list(body.get("strands", []), "strands"):
        raw = _obj(raw, "strand entry")
        _expect(isinstance(raw.get("id"), str), "strand id must be a string")
        _expect(isinstance(raw.get("agent"), str), "strand agent must be a string")
        trace = tuple(parse_term(t) for t in _list(raw.get("trace", []), "strand trace"))
        strands.append(Strand(raw["id"], trace))
        assignment[raw["id"]] = raw["agent"]
    conflicts = None
    if "conflicts" in body or body["kind"] == "extended-space":
        conflicts = []
        for pair in _list(body.get("conflicts", []), "conflicts"):
            _expect(
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(x, str) for x in pair),
                "each conflict entry must be a pair of strand ids",
            )
            conflicts.append((pair[0], pair[1]))
    # the space's own problems first, its conflict pairs' among them, then
    # the file's, which are found even when the space is ill formed
    try:
        space, problems = StrandSpace.of(strands, agents, assignment, conflicts), []
    except IllFormedError as exc:
        space, problems = None, list(exc.problems)
    problems += token_problems("message", sorted(set(messages)))
    used = {t.message for s in strands for t in s.trace}
    problems += [f"undeclared message: {m}" for m in sorted(used - set(messages))]
    if problems:
        raise IllFormedError(problems)
    return space


def _parse_system(body: dict) -> HistorySet:
    agents = _str_list(body.get("agents", []), "agents")
    histories = _obj(body.get("histories", {}), "histories")
    mapping = {a: [()] for a in agents}
    for agent, entries in histories.items():
        _expect(agent in mapping, f"histories given for undeclared agent {agent}")
        _expect(isinstance(entries, list), f"histories for {agent} must be a list")
        mapping[agent] = [
            tuple(parse_event(e) for e in _list(h, f"each history of agent {agent}"))
            for h in entries
        ]
    try:
        histories, problems = HistorySet.of(mapping), []
    except IllFormedError as exc:
        histories, problems = None, list(exc.problems)
    problems += token_problems("agent", sorted(set(agents)))
    if problems:
        raise IllFormedError(problems)
    return histories


def _parse_spec(raw: Any) -> ProtocolSpec:
    raw = _obj(raw, "protocol spec")
    if "monotone" in raw:
        return MonotoneSpec(tuple(parse_event(e) for e in _list(raw["monotone"], "monotone")))
    if "union" in raw:
        members = raw["union"]
        _expect(isinstance(members, list) and members, "union must be a nonempty list")
        return UnionSpec(tuple(_parse_spec(m) for m in members))
    if "table" in raw:
        entries = {}
        for entry in _list(raw["table"], "table"):
            entry = _obj(entry, "table entry")
            history = tuple(
                parse_event(e) for e in _list(entry.get("history", []), "table history")
            )
            actions = [
                parse_action(a) for a in _list(entry.get("actions", []), "table actions")
            ]
            _expect(bool(actions), "table entry needs at least one action")
            entries[history] = actions
        default = [parse_action(a) for a in _list(raw.get("default", ["no-op"]), "default")]
        return TableSpec.of(entries, default)
    raise SchemaError("protocol spec needs one of: monotone, union, table")


def _parse_protocol(body: dict) -> JointProtocol:
    messages = _str_list(body.get("messages", []), "messages")
    agents = _obj(body.get("agents", {}), "agents")
    mapping = {}
    for agent, spec in agents.items():
        try:
            mapping[agent] = _parse_spec(spec)
        except RecursionError as exc:  # the spec parser recurses once per union level
            raise SchemaError(f"protocol spec of agent {agent} nested too deeply to parse") from exc
    return JointProtocol.of(mapping, messages)


def _parse_runs(body: dict) -> RunAutomaton:
    keys = set(_str_list(body.get("agents", []), "agents"))
    names = sorted(keys)  # a state's agents: the declared ones without repeats
    horizon = _nat(body.get("horizon"), "horizon")
    # each distinct event and state is built once, then shared; a raw state
    # is parsed once per object (json.loads shares equal ones), by its id
    # while body keeps it alive
    events: dict[str, Event] = {}
    shared: dict[GlobalState, GlobalState] = {}
    parsed: dict[int, GlobalState] = {}

    def event(s: str) -> Event:
        e = events.get(s)
        if e is None:
            e = events[s] = parse_event(s)
        return e

    def state(raw: Any) -> GlobalState:
        g = parsed.get(id(raw))
        if g is not None:
            return g
        raw = _obj(raw, "global state")
        if raw.keys() != keys:
            raise SchemaError(f"global state agents {sorted(raw)} != {names}")
        histories = [raw[a] for a in names]
        _expect(all(type(h) is list for h in histories), "each history must be a list")
        _expect(
            all(type(e) is str for h in histories for e in h),
            "each history must be a list of strings",
        )
        g = GlobalState(tuple((a, tuple(map(event, h))) for a, h in zip(names, histories)))
        g = parsed[id(raw)] = shared.setdefault(g, g)
        return g

    def runs():
        for raw_run in _list(body.get("runs", []), "runs"):
            _expect(isinstance(raw_run, list), "each run must be a list of states")
            _expect(
                len(raw_run) == horizon + 1,
                f"each run must contain horizon+1 = {horizon + 1} states",
            )
            yield RunPrefix(tuple(map(state, raw_run)))

    return RunAutomaton.of(runs(), names, horizon)


def _parse_node(raw: Any) -> Node:
    _expect(
        isinstance(raw, list)
        and len(raw) == 2
        and isinstance(raw[0], str)
        and type(raw[1]) is int,
        f"a node must be a [strand, index] pair, got {raw!r}",
    )
    return Node(raw[0], raw[1])


def _parse_bundle(raw: Any) -> Bundle:
    raw = _obj(raw, "bundle")
    heights = _obj(raw.get("heights", {}), "heights")
    for sid, h in heights.items():
        _nat(h, f"height of {sid}")
    edges = []
    for pair in _list(raw.get("edges", []), "edges"):
        _expect(
            isinstance(pair, list) and len(pair) == 2,
            "each edge must be a [sender, receiver] pair",
        )
        edges.append((_parse_node(pair[0]), _parse_node(pair[1])))
    return Bundle.of(heights, edges)


def _parse_bundles(body: dict) -> BundlesDocument:
    raw = _list(body.get("bundles", []), "bundles")
    return BundlesDocument(bundles=tuple(_parse_bundle(b) for b in raw))


def _parse_step(raw: Any) -> StepWitness:
    step = _obj(raw, "chain step")
    f = _obj(step.get("f", {}), "witness mapping")
    _expect(
        all(isinstance(t, str) for t in f.values()),
        "witness mapping values must be strand ids",
    )
    extensions = []
    for ext in _list(step.get("extensions", []), "extensions"):
        ext = _obj(ext, "extension")
        _expect(
            isinstance(ext.get("agent"), str) and isinstance(ext.get("strand"), str),
            "an extension needs an agent and a strand",
        )
        extensions.append((ext["agent"], ext["strand"], parse_event(ext.get("event"))))
    return StepWitness(f=tuple(sorted(f.items())), extensions=tuple(sorted(extensions)))


def _parse_chains(body: dict) -> ChainsDocument:
    agents = tuple(sorted(set(_str_list(body.get("agents", []), "agents"))))
    # each distinct bundle and step is parsed once per spelling (the repr
    # of its JSON value), and equal values share one object
    parsed: dict[tuple[Callable, str], Any] = {}
    shared: dict[Any, Any] = {}

    def value(raw: Any, parse: Callable) -> Any:
        key = (parse, repr(raw))
        v = parsed.get(key)
        if v is None:
            v = parse(raw)
            v = parsed[key] = shared.setdefault(v, v)
        return v

    chains = []
    for raw in _list(body.get("chains", []), "chains"):
        raw = _obj(raw, "chain")
        bundles = [value(b, _parse_bundle) for b in _list(raw.get("bundles", []), "bundles")]
        steps = [value(w, _parse_step) for w in _list(raw.get("steps", []), "steps")]
        chains.append(
            ChainPrefix(agents=agents, bundles=tuple(bundles), witnesses=tuple(steps))
        )
    return ChainsDocument(agents=agents, chains=tuple(chains))


_PARSERS = {
    "space": _parse_space,
    "extended-space": _parse_space,
    "system": _parse_system,
    "protocol": _parse_protocol,
    "runs": _parse_runs,
    "bundles": _parse_bundles,
    "chains": _parse_chains,
}
KINDS = tuple(_PARSERS)


# --- serializers --------------------------------------------------------


# A document's bytes are json.dumps(body, indent=2, sort_keys=True) and a
# newline, appended as pieces to one list and joined once.  Runs and chains
# documents refer there to the text of each distinct state, bundle or step,
# encoded once and indented to its depth.

Writer = Callable[[list[str]], None]  # appends a value's pieces to a list


def _indented(value: Any, depth: int) -> str:
    """``value`` as JSON text nested ``depth`` levels deep."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


@cache
def _marks(brackets: str, depth: int) -> tuple[str, str, str]:
    """The text that opens, separates and closes the items of a list or
    object ``depth`` levels deep, made once and shared by every one."""
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner, "," + inner, "\n" + "  " * depth + brackets[1]


def _join(
    out: list[str],
    brackets: str,
    items: Iterable[Any],
    depth: int,
    write: Callable[[list[str], Any], None] = list.append,
) -> None:
    """Append to ``out`` a list or object ``depth`` levels deep:
    ``write(out, item)`` appends each item, nested one level deeper; by
    default an item is its text."""
    opening, separator, closing = _marks(brackets, depth)
    start = len(out)
    for item in items:
        out.append(separator if len(out) > start else opening)
        write(out, item)
    out.append(closing if len(out) > start else brackets)


def _object_text(out: list[str], entries: dict[str, Writer], depth: int) -> None:
    def entry(out: list[str], item: tuple[str, Writer]) -> None:
        key, write = item
        out.append(json.dumps(key) + ": ")
        write(out)

    _join(out, "{}", sorted(entries.items()), depth, entry)


def _shared_text(to_body: Callable[[Any], Any], depth: int) -> Callable[[Any], str]:
    """``to_body(value)`` as JSON text ``depth`` levels deep, encoded once
    per distinct value."""
    encoded: dict[Any, str] = {}

    def text(value: Any) -> str:
        out = encoded.get(value)
        if out is None:
            out = encoded[value] = _indented(to_body(value), depth)
        return out

    return text


def _dumps(body: dict, **nested: Writer) -> str:
    """The document ``body``, plus the entries in ``nested``, whose writers
    append them nested one level deep."""
    entries: dict[str, Writer] = {
        k: lambda out, text=_indented(v, 1): out.append(text) for k, v in body.items()
    }
    entries.update(nested)
    out: list[str] = []
    _object_text(out, entries, 0)
    out.append("\n")
    return "".join(out)


def dump_space(space: StrandSpace) -> str:
    body: dict = {
        "kind": "space" if space.conflicts is None else "extended-space",
        "messages": sorted(space.messages()),
        "agents": list(space.agents),
        "strands": [
            {"id": s.id, "agent": space.agent_of(s.id), "trace": [str(t) for t in s.trace]}
            for s in space.strands
        ],
    }
    if space.conflicts is not None:
        body["conflicts"] = sorted([a, b] for a, b in space.conflicts)
    return _dumps(body)


def dump_system(hs: HistorySet) -> str:
    return _dumps(
        {
            "kind": "system",
            "agents": list(hs.agents),
            "histories": {a: [[str(e) for e in h] for h in hs.histories(a)] for a in hs.agents},
        }
    )


def _spec_body(p: ProtocolSpec) -> dict:
    if isinstance(p, MonotoneSpec):
        return {"monotone": [str(e) for e in p.events]}
    if isinstance(p, UnionSpec):
        return {"union": [_spec_body(m) for m in p.members]}
    return {
        "table": [
            {
                "history": [str(e) for e in h],
                "actions": sorted(str(a) for a in actions),
            }
            for h, actions in p.entries
        ],
        "default": sorted(str(a) for a in p.default),
    }


def dump_protocol(jp: JointProtocol) -> str:
    return _dumps(
        {
            "kind": "protocol",
            "messages": list(jp.messages),
            "agents": {a: _spec_body(jp.spec(a)) for a in jp.agents},
        }
    )


def _state_body(g: GlobalState) -> dict:
    return {a: [str(e) for e in h] for a, h in g.items()}


def dump_runs(runs: RunAutomaton) -> str:
    state = _shared_text(_state_body, 3)

    def run_text(out: list[str], run: RunPrefix) -> None:
        _join(out, "[]", map(state, run.states), 2)

    return _dumps(
        {"kind": "runs", "agents": list(runs.agents), "horizon": runs.horizon},
        runs=lambda out: _join(out, "[]", runs, 1, run_text),
    )


def _bundle_body(b: Bundle) -> dict:
    return {
        "heights": {sid: h for sid, h in b.heights},
        "edges": [
            [[n1.strand, n1.index], [n2.strand, n2.index]]
            for n1, n2 in sorted(b.edges)
        ],
    }


def dump_bundles(doc: BundlesDocument) -> str:
    return _dumps(
        {"kind": "bundles", "bundles": [_bundle_body(b) for b in doc.bundles]}
    )


def _step_body(w: StepWitness) -> dict:
    return {
        "f": dict(w.f),
        "extensions": [
            {"agent": agent, "strand": strand, "event": str(event)}
            for agent, strand, event in w.extensions
        ],
    }


def dump_chains(doc: ChainsDocument) -> str:
    bundle = _shared_text(_bundle_body, 4)
    step = _shared_text(_step_body, 4)

    def chain_text(out: list[str], chain: ChainPrefix) -> None:
        _object_text(
            out,
            {
                "bundles": lambda out: _join(out, "[]", map(bundle, chain.bundles), 3),
                "steps": lambda out: _join(out, "[]", map(step, chain.witnesses), 3),
            },
            2,
        )

    return _dumps(
        {"kind": "chains", "agents": list(doc.agents)},
        chains=lambda out: _join(out, "[]", doc.chains, 1, chain_text),
    )


_DUMPERS = {
    StrandSpace: dump_space,
    HistorySet: dump_system,
    JointProtocol: dump_protocol,
    RunAutomaton: dump_runs,
    BundlesDocument: dump_bundles,
    ChainsDocument: dump_chains,
}


def dump_document(doc: Document) -> str:
    return _DUMPERS[type(doc)](doc)
