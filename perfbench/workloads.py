"""Seeded inputs and command lists of the benchmark workloads.

Each workload writes its input model files into a work directory and
returns the strandlab commands of one pass.  The seed changes only names
and file order, never sizes:

* ``verdicts`` and ``roundtrip`` copy the shipped fixtures, shuffling the
  order of every set-like JSON list and every object's keys.  strandlab
  canonicalizes what it reads, so stdout and ``--out`` bytes must not change.
* ``relay-scaling`` generates hub-and-spoke relays and identity-assigned
  rings whose strand, agent and message names are drawn from the seed.
  Their passing verdicts print only counts, so their bytes are fixed too.

Every command that checks a space gets ``--max-nodes`` equal to that
space's node count: with a smaller cap the enumeration is truncated and the
verdict is not the theorem's (see README.md).

The exit code each command expects comes from the paper: every theorem and
lemma holds (0), both ``check --equal`` pairs differ (1).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HOLDS = 0
DIFFERS = 1


@dataclass(frozen=True)
class Command:
    """One strandlab invocation of a pass, with the answer it must give."""

    id: str  # key of its digests in expected.json
    args: tuple[str, ...]  # strandlab CLI arguments; file names are in the work dir
    exit: int
    out: str | None = None  # file the command writes with --out


# JSON lists whose order carries no meaning in the document schema.
_SET_LISTS = {"messages", "agents", "strands", "conflicts", "table", "default", "actions"}


def _reorder(value, rng: random.Random, key: str | None = None):
    """The same document with set-like lists and object keys shuffled."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        if key == "histories":  # agent -> set of histories
            return {a: rng.sample(hs, len(hs)) for a, hs in items}
        return {k: _reorder(v, rng, k) for k, v in items}
    if isinstance(value, list):
        items = [_reorder(v, rng) for v in value]
        if key in _SET_LISTS:
            rng.shuffle(items)
            if key == "conflicts":
                items = [rng.sample(pair, 2) for pair in items]
        return items
    return value


def _write(workdir: Path, name: str, doc: dict) -> str:
    (workdir / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return name


def _copy_fixtures(root: Path, workdir: Path, rng: random.Random, names) -> dict[str, dict]:
    docs = {}
    for name in names:
        doc = json.loads((root / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))
        docs[name] = doc
        _write(workdir, f"{name}.json", _reorder(doc, rng))
    return docs


def _space_nodes(doc: dict) -> str:
    return str(sum(len(s["trace"]) for s in doc["strands"]))


def _monotone_space_nodes(doc: dict) -> str:
    """Node count of the space theorem 7 derives from a monotone protocol:
    each agent's event sequences plus one receive strand per message."""

    def events(spec: dict) -> int:
        if "monotone" in spec:
            return len(spec["monotone"])
        return sum(events(m) for m in spec["union"])

    per_agent = [events(spec) + len(doc["messages"]) for spec in doc["agents"].values()]
    return str(sum(per_agent))


def verdicts(root: Path, workdir: Path, seed: int) -> list[Command]:
    """Theorems 1-7 and lemmas 1-2 on the shipped fixtures, default horizons."""
    docs = _copy_fixtures(
        root,
        workdir,
        random.Random(seed),
        ["ping_space", "r1_space", "r1_system", "r1_t5_space", "nack_space",
         "nack_system", "nack_protocol", "u1u2u3_protocol"],
    )
    ping = _space_nodes(docs["ping_space"])
    r1 = _space_nodes(docs["r1_space"])
    return [
        Command("theorem-1", ("check", "--theorem", "1", "ping_space.json", "--max-nodes", ping), HOLDS),
        Command("theorem-2", ("check", "--theorem", "2", "ping_space.json", "--max-nodes", ping), HOLDS),
        Command("theorem-3", ("check", "--theorem", "3", "r1_space.json", "r1_system.json",
                              "--max-nodes", r1), HOLDS),
        Command("theorem-4", ("check", "--theorem", "4", "r1_t5_space.json",
                              "--max-nodes", _space_nodes(docs["r1_t5_space"])), HOLDS),
        Command("theorem-5", ("check", "--theorem", "5", "nack_system.json"), HOLDS),
        Command("theorem-6", ("check", "--theorem", "6", "nack_protocol.json"), HOLDS),
        Command("theorem-7", ("check", "--theorem", "7", "u1u2u3_protocol.json",
                              "--max-nodes", _monotone_space_nodes(docs["u1u2u3_protocol"])), HOLDS),
        Command("lemma-1", ("check", "--lemma", "1", "r1_space.json", "--max-nodes", r1), HOLDS),
        Command("lemma-2", ("check", "--lemma", "2", "nack_space.json",
                            "--max-nodes", _space_nodes(docs["nack_space"])), HOLDS),
    ]


def roundtrip(root: Path, workdir: Path, seed: int) -> list[Command]:
    """Run documents written by enumerate, then read back by check and validate."""
    docs = _copy_fixtures(
        root, workdir, random.Random(seed),
        ["r1_space", "r1_system", "nack_space", "nack_protocol"],
    )
    r1 = _space_nodes(docs["r1_space"])
    nack = _space_nodes(docs["nack_space"])
    # At horizon 5 the r1 runs file is 2.7 MB and a pass about 6 s, so a run
    # holds several passes; at 6 it is 10.7 MB and a pass about 13 s.
    r1_h = ("--horizon", "5")
    h = ("--horizon", "6")
    return [
        Command("translate-r1", ("enumerate", "r1_space.json", "--translate", *r1_h,
                                 "--max-nodes", r1, "--out", "r1_translate.json"),
                HOLDS, "r1_translate.json"),
        Command("gen-system-r1", ("enumerate", "r1_system.json", "--gen-system", *r1_h,
                                  "--out", "r1_system_runs.json"),
                HOLDS, "r1_system_runs.json"),
        # theorem 3: the translation is a strict superset of the system
        Command("equal-r1", ("check", "--equal", "r1_translate.json", "r1_system_runs.json"),
                DIFFERS),
        Command("translate-nack", ("enumerate", "nack_space.json", "--translate", *h,
                                   "--max-nodes", nack, "--out", "nack_translate.json"),
                HOLDS, "nack_translate.json"),
        Command("run-protocol-nack", ("enumerate", "nack_protocol.json", "--run-protocol", *h,
                                      "--out", "nack_runs.json"),
                HOLDS, "nack_runs.json"),
        # the anomaly: the non-monotone protocol's naive space differs from it
        Command("equal-nack", ("check", "--equal", "nack_translate.json", "nack_runs.json"),
                DIFFERS),
        Command("chains-r1", ("enumerate", "r1_space.json", "--chains", "--horizon", "4",
                              "--max-nodes", r1, "--out", "r1_chains.json"),
                HOLDS, "r1_chains.json"),
        Command("validate-r1-translate", ("validate", "r1_translate.json"), HOLDS),
    ]


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct names in random order."""
    pool: set[str] = set()
    while len(pool) < n:
        pool.add(f"{prefix}{rng.randrange(16 ** 4):04x}")
    names = sorted(pool)
    rng.shuffle(names)
    return names


def relay_space(k: int, rng: random.Random) -> dict:
    """A hub agent owning k strands +q_i,-r_i, each answered by a spoke
    agent's strand -q_i,+r_i.  The assignment is not the identity, so the
    step graph takes the pairwise check_step path over 5**k bundles."""
    hub, *spokes = _names(rng, "ag", k + 1)
    msgs = _names(rng, "m", 2 * k)
    q, r = msgs[:k], msgs[k:]
    sids = _names(rng, "s", 2 * k)
    strands = []
    for i in range(k):
        strands.append({"id": sids[i], "agent": hub, "trace": [f"+{q[i]}", f"-{r[i]}"]})
        strands.append({"id": sids[k + i], "agent": spokes[i], "trace": [f"-{q[i]}", f"+{r[i]}"]})
    doc = {"kind": "space", "messages": msgs, "agents": [hub, *spokes], "strands": strands}
    return _reorder(doc, rng)


def ring_space(n: int, rng: random.Random) -> dict:
    """n identity-assigned strands +m_i,-m_(i-1): each agent sends its token
    and then receives its predecessor's.  The step graph is constructive."""
    sids = _names(rng, "a", n)
    msgs = _names(rng, "m", n)
    strands = [
        {"id": sids[i], "agent": sids[i], "trace": [f"+{msgs[i]}", f"-{msgs[i - 1]}"]}
        for i in range(n)
    ]
    doc = {"kind": "space", "messages": msgs, "agents": sids, "strands": strands}
    return _reorder(doc, rng)


# (family, size, checks); a check is "lemma-1", "lemma-2" or "theorem-1@HORIZON"
_SCALING = [
    ("relay", 2, ("lemma-1", "lemma-2", "theorem-1@4")),
    ("relay", 3, ("lemma-1", "lemma-2", "theorem-1@3")),
    ("relay", 4, ("lemma-1",)),
    ("ring", 3, ("lemma-1", "lemma-2", "theorem-1@4")),
    ("ring", 4, ("lemma-1", "lemma-2", "theorem-1@3")),
    ("ring", 5, ("lemma-1", "lemma-2")),
    ("ring", 6, ("lemma-1",)),
]


def relay_scaling(root: Path, workdir: Path, seed: int) -> list[Command]:
    """Lemmas 1-2 and theorem 1 on relays of k = 2..4 spokes and rings of
    n = 3..6 agents, at short horizons."""
    rng = random.Random(seed)
    make = {"relay": relay_space, "ring": ring_space}
    commands = []
    for family, size, checks in _SCALING:
        doc = make[family](size, rng)
        name = _write(workdir, f"{family}{size}.json", doc)
        nodes = _space_nodes(doc)
        for check in checks:
            what, _, horizon = check.partition("@")
            kind, number = what.split("-")
            args = ["check", f"--{kind}", number, name, "--max-nodes", nodes]
            if horizon:
                args += ["--horizon", horizon]
            commands.append(Command(f"{family}{size}-{check}", tuple(args), HOLDS))
    return commands


WORKLOADS = {
    "verdicts": verdicts,
    "roundtrip": roundtrip,
    "relay-scaling": relay_scaling,
}
