from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings

from strandlab.cli import main
from strandlab.documents import dump_document, load_document
from strandlab.systems import RunAutomaton

from conftest import fixture_path, run_sets
from reference import reference_validate_runs


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestValidate:
    @pytest.mark.parametrize(
        "name",
        [
            "r1_space",
            "r1_t5_space",
            "r1_system",
            "nack_protocol",
            "ping_space",
        ],
    )
    def test_well_formed_fixtures(self, capsys, name):
        assert run_cli("validate", fixture_path(name)) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_cross_agent_conflict_fails(self, tmp_path, capsys):
        body = {
            "kind": "extended-space",
            "messages": ["u"],
            "agents": ["a", "b"],
            "strands": [
                {"id": "s1", "agent": "a", "trace": ["+u"]},
                {"id": "s2", "agent": "b", "trace": ["-u"]},
            ],
            "conflicts": [["s1", "s2"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        assert run_cli("validate", path) == 1
        assert "conflict pair spans agents" in capsys.readouterr().out

    def test_non_prefix_closed_system_fails(self, tmp_path, capsys):
        body = {
            "kind": "system",
            "agents": ["a"],
            "histories": {"a": [[], ["sent u", "sent v"]]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        assert run_cli("validate", path) == 1
        assert "prefix" in capsys.readouterr().out

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("validate", path) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli("validate", tmp_path / "absent.json") == 2


# files that parse but that `validate` rejects, each with the lines it
# prints and the modes that must refuse it with the first of them
INVALID = {
    "duplicate strand id": (
        {"kind": "space", "messages": ["u"], "agents": ["a"], "strands": [
            {"id": "s", "agent": "a", "trace": ["+u"]},
            {"id": "s", "agent": "a", "trace": ["-u"]},
        ]},
        ["duplicate strand id: s"],
        ("enumerate --bundles", "check --lemma 2", "check --theorem 1"),
    ),
    "undeclared agent": (
        {"kind": "space", "messages": ["u"], "agents": ["a"], "strands": [
            {"id": "s", "agent": "a", "trace": ["+u"]},
            {"id": "t", "agent": "zz", "trace": ["-u"]},
        ]},
        ["strand t assigned to undeclared agent zz"],
        ("enumerate --translate", "check --theorem 1", "check --lemma 1"),
    ),
    "undeclared protocol message": (
        {"kind": "protocol", "messages": ["u"], "agents": {
            "a": {"monotone": ["sent v"]},
            "b": {"monotone": ["recv v"]},
        }},
        ["undeclared message: v"],
        ("enumerate --run-protocol", "check --theorem 6", "check --theorem 7"),
    ),
    # the space's own problem, then the document's, in that order; a file
    # of the wrong kind is refused with its first problem too
    "space and document problems": (
        {"kind": "extended-space", "messages": ["u"], "agents": ["a", "b"], "strands": [
            {"id": "s", "agent": "a", "trace": ["+u"]},
            {"id": "s", "agent": "a", "trace": ["-v"]},
            {"id": "t", "agent": "b", "trace": ["-u"]},
        ], "conflicts": [["s", "t"]]},
        ["duplicate strand id: s", "conflict pair spans agents: (s, t)", "undeclared message: v"],
        ("enumerate --bundles", "check --lemma 1", "check --theorem 5"),
    ),
    # a conflict pair is refused by the space it belongs to, whichever
    # mode reads the space
    "conflict pair across agents": (
        {"kind": "extended-space", "messages": ["u"], "agents": ["a", "b"], "strands": [
            {"id": "s", "agent": "a", "trace": ["+u"]},
            {"id": "t", "agent": "b", "trace": ["-u"]},
        ], "conflicts": [["s", "t"]]},
        ["conflict pair spans agents: (s, t)"],
        ("enumerate --bundles", "check --theorem 4", "check --lemma 1"),
    ),
    "conflict pair with an unknown strand": (
        {"kind": "extended-space", "messages": ["u"], "agents": ["a", "b"], "strands": [
            {"id": "s", "agent": "a", "trace": ["+u"]},
            {"id": "t", "agent": "b", "trace": ["-u"]},
        ], "conflicts": [["s", "zz"]]},
        ["conflict pair references unknown strand 'zz'"],
        ("enumerate --translate", "check --theorem 4", "check --theorem 1"),
    ),
    "non-prefix-closed system": (
        {"kind": "system", "agents": ["a"], "histories": {"a": [["sent u", "sent v"]]}},
        [
            "history set for agent a lacks the empty history",
            "history set for agent a lacks a prefix of ['sent u', 'sent v']",
        ],
        ("enumerate --gen-system", "check --theorem 5"),
    ),
    # agent and message names become strand ids and events, so a name that
    # is not a token is refused when parsed, not when a check builds from it
    "agent name with whitespace": (
        {"kind": "system", "agents": ["a b"], "histories": {"a b": [[], ["sent u"]]}},
        ["agent must be a nonempty token without whitespace: 'a b'"],
        ("enumerate --gen-system", "check --theorem 5"),
    ),
    "empty agent name": (
        {"kind": "system", "agents": ["", "b"], "histories": {"b": [[], ["sent u"]]}},
        ["agent must be a nonempty token without whitespace: ''"],
        ("check --theorem 5",),
    ),
    "protocol names with whitespace": (
        {"kind": "protocol", "messages": ["u", "u v"], "agents": {
            "a": {"monotone": ["sent u"]},
            "b c": {"monotone": ["recv u"]},
        }},
        [
            "agent must be a nonempty token without whitespace: 'b c'",
            "message must be a nonempty token without whitespace: 'u v'",
        ],
        ("enumerate --run-protocol", "check --theorem 6", "check --theorem 7"),
    ),
    "space message with whitespace": (
        {"kind": "space", "messages": ["u", "u v"], "agents": ["a"], "strands": [
            {"id": "s", "agent": "a", "trace": ["+u"]},
            {"id": "t", "agent": "a", "trace": ["-w"]},
        ]},
        [
            "message must be a nonempty token without whitespace: 'u v'",
            "undeclared message: w",
        ],
        ("enumerate --bundles", "check --lemma 2"),
    ),
}


class TestInvalidInputIsRefused:
    def test_space_agent_names_are_not_checked(self, tmp_path, capsys):
        # a space's agent names become no id, and theorem 1 regenerates the
        # translation's runs from histories extracted under those names
        body = {"kind": "space", "messages": ["u"], "agents": ["a b", "c"], "strands": [
            {"id": "ping", "agent": "a b", "trace": ["+u"]},
            {"id": "pong", "agent": "c", "trace": ["-u"]},
        ]}
        path = tmp_path / "spaced.json"
        path.write_text(json.dumps(body))
        assert run_cli("validate", path) == 0
        assert run_cli("check", "--theorem", 1, path) == 0
        assert capsys.readouterr().out.startswith("ok\nPASS translation is a strand system\n")

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_validate_reports_the_problem(self, tmp_path, capsys, case):
        body, problems, _ = INVALID[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        assert run_cli("validate", path) == 1
        assert capsys.readouterr() == ("".join(p + "\n" for p in problems), "")

    @pytest.mark.parametrize(
        "case,mode", [(case, mode) for case in sorted(INVALID) for mode in INVALID[case][2]]
    )
    def test_enumerate_and_check_exit_2(self, tmp_path, capsys, case, mode):
        body, problems, _ = INVALID[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        command, *flags = mode.split()
        argv = [command, path, *flags] if command == "enumerate" else [command, *flags, path]
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == ("", f"error: {problems[0]}\n")


def runs_text(agents, horizon, runs) -> str:
    return json.dumps({"kind": "runs", "agents": agents, "horizon": horizon, "runs": runs})


def validate_stdout(text: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "runs.json"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["validate", str(path)])
    return code, out.getvalue()


# a clean run, and runs that each fail one condition, with what validate prints
CLEAN_RUN = [{"a": [], "b": []}, {"a": ["sent u"], "b": []}, {"a": ["sent u"], "b": ["recv u"]}]
BAD_RUNS = {
    "strong MP2": (
        [{"a": [], "b": []}, {"a": ["sent u"], "b": ["recv u"]},
         {"a": ["sent u"], "b": ["recv u", "recv u"]}],
        "MP2: at time 2: 2 receives of u but only 1 sends\n",
    ),
    "MP3 jump": (
        [{"a": [], "b": []}, {"a": [], "b": []}, {"a": ["sent u", "sent v"], "b": []}],
        "MP3: agent a history shrinks or jumps at time 2\n",
    ),
    "MP3 shrink": (
        [{"a": [], "b": []}, {"a": ["sent u"], "b": []}, {"a": [], "b": []}],
        "MP3: agent a history shrinks or jumps at time 2\n",
    ),
    "non-empty initial state": (
        [{"a": ["sent u"], "b": []}, {"a": ["sent u"], "b": []}, {"a": ["sent u"], "b": []}],
        "MP3: initial state is not empty\n",
    ),
}


class TestValidateRuns:
    """`validate` on runs documents prints what the sorted `check_mp` loop
    over every run prints."""

    def test_clean_file(self, tmp_path, capsys):
        path = tmp_path / "runs.json"
        assert run_cli(
            "enumerate", fixture_path("nack_system"), "--gen-system", "--horizon", 3, "--out", path
        ) == 0
        assert run_cli("validate", path) == 0
        assert capsys.readouterr().out == "ok\n" == reference_validate_runs(path.read_text())

    @pytest.mark.parametrize("name", sorted(BAD_RUNS))
    def test_violation(self, name):
        run, printed = BAD_RUNS[name]
        text = runs_text(["a", "b"], 2, [CLEAN_RUN, run])
        assert validate_stdout(text) == (1, printed)
        assert printed == reference_validate_runs(text)

    def test_initial_state_of_one_run_is_a_later_state_of_another(self):
        # CLEAN_RUN's state at time 1 is the other run's initial state,
        # which fails only there
        later = CLEAN_RUN[1]
        text = runs_text(["a", "b"], 2, [CLEAN_RUN, [later, later, later]])
        assert validate_stdout(text) == (1, "MP3: initial state is not empty\n")
        assert validate_stdout(text)[1] == reference_validate_runs(text)

    def test_least_failing_run_is_reported(self):
        text = runs_text(["a", "b"], 2, [CLEAN_RUN, *(run for run, _ in BAD_RUNS.values())])
        assert validate_stdout(text) == (1, reference_validate_runs(text))

    @given(run_sets())
    @settings(max_examples=100, deadline=None)
    def test_drawn_run_sets(self, drawn):
        agents, horizon, runs = drawn
        text = dump_document(RunAutomaton.of(runs, agents, horizon))
        code, out = validate_stdout(text)
        assert out == reference_validate_runs(text)
        assert code == (0 if out == "ok\n" else 1)

    def test_budget(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "runs.json"
        run_cli("enumerate", fixture_path("nack_system"), "--gen-system", "--horizon", 3, "--out", path)
        # enough for parsing, so the budget runs out in the MP check
        parse_cost = load_document(path).budget.used
        monkeypatch.setenv("STRANDLAB_MAX_STATES", str(parse_cost))
        capsys.readouterr()
        assert run_cli("validate", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: enumeration exceeded STRANDLAB_MAX_STATES=")


# one document per parser path that used to raise an uncaught exception
MALFORMED = {
    "space trace": {
        "kind": "space", "messages": ["u"], "agents": ["a"],
        "strands": [{"id": "s", "agent": "a", "trace": 5}],
    },
    "system history": {"kind": "system", "agents": ["a"], "histories": {"a": [[], 5]}},
    "system undeclared agent": {
        "kind": "system", "agents": ["a"], "histories": {"zz": [[], ["sent u"]]},
    },
    "protocol monotone": {"kind": "protocol", "messages": ["u"], "agents": {"a": {"monotone": 5}}},
    "bundles edges": {"kind": "bundles", "bundles": [{"heights": {"s": 1}, "edges": 5}]},
    "chains extension without strand": {
        "kind": "chains", "agents": ["a"],
        "chains": [{
            "bundles": [{"heights": {}, "edges": []}, {"heights": {"s": 1}, "edges": []}],
            "steps": [{"f": {}, "extensions": [{"agent": "a", "event": "sent u"}]}],
        }],
    },
    "runs runs": {"kind": "runs", "agents": ["a"], "horizon": 0, "runs": 5},
    "runs state": {"kind": "runs", "agents": ["a"], "horizon": 0, "runs": [[{"a": 5}]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[name]))
    proc = subprocess.run(
        [sys.executable, "-m", "strandlab.cli", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "bad.json"],
        ["check", "--theorem", "3", fixture_path("r1_space"), "bad.json"],
        ["check", "--theorem", "5", "bad.json"],
        ["enumerate", "bad.json", "--gen-system"],
    ],
)
def test_system_with_undeclared_agent_is_refused(tmp_path, capsys, argv):
    # its histories used to be added beside the declared agent's, so the
    # file validated ok and theorem 5 PASSed over agents a and zz
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED["system undeclared agent"]))
    assert run_cli(*(path if a == "bad.json" else a for a in argv)) == 2
    assert capsys.readouterr() == ("", "error: histories given for undeclared agent zz\n")


# Nested past the JSON parser's recursion limit; written as raw text,
# since json.dumps recurses as deep as the parser does.
DEEP = {
    "bundles 995 deep": '{"kind": "bundles", "bundles": ' + "[" * 995 + "]" * 995 + "}",
    "runs 100000 deep": '{"kind": "runs", "agents": ["a"], "horizon": 0, "runs": '
    + "[" * 100_000 + "]" * 100_000 + "}",
    # on Python 3.12 and later json.loads takes it and the spec parser,
    # two frames per union level, meets the recursion limit
    "protocol union 600 deep": '{"kind": "protocol", "messages": ["u"], "agents": {"a": '
    + '{"union": [' * 600 + '{"monotone": ["sent u"]}' + "]}" * 600 + "}}",
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deeply_nested_input_exits_2(tmp_path, name):
    path = tmp_path / "deep.json"
    path.write_text(DEEP[name])
    proc = subprocess.run(
        [sys.executable, "-m", "strandlab.cli", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


class TestEnumerate:
    def test_bundles_output_parses(self, capsys):
        assert run_cli("enumerate", fixture_path("ping_space"), "--bundles") == 0
        body = json.loads(capsys.readouterr().out)
        assert body["kind"] == "bundles"
        # the ping space has exactly three bundles up to 2 nodes
        assert len(body["bundles"]) == 3

    def test_translate_output_shape(self, capsys):
        assert (
            run_cli(
                "enumerate",
                fixture_path("ping_space"),
                "--translate",
                "--horizon",
                2,
            )
            == 0
        )
        body = json.loads(capsys.readouterr().out)
        assert body["kind"] == "runs" and body["horizon"] == 2
        assert all(len(run) == 3 for run in body["runs"])

    def test_gen_system_requires_system_file(self, capsys):
        assert run_cli("enumerate", fixture_path("r1_space"), "--gen-system") == 2
        assert "system file" in capsys.readouterr().err

    def test_run_protocol_out_file(self, tmp_path):
        out = tmp_path / "runs.json"
        assert (
            run_cli(
                "enumerate",
                fixture_path("nack_protocol"),
                "--run-protocol",
                "--horizon",
                3,
                "--out",
                out,
            )
            == 0
        )
        assert json.loads(out.read_text())["kind"] == "runs"

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"chains{i}.json"
            assert (
                run_cli(
                    "enumerate",
                    fixture_path("nack_space"),
                    "--chains",
                    "--horizon",
                    3,
                    "--max-nodes",
                    6,
                    "--out",
                    out,
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_negative_horizon_is_usage_error(self, capsys):
        # one message for both subcommands
        for argv in (
            ("enumerate", fixture_path("ping_space"), "--translate"),
            ("check", "--theorem", 1, fixture_path("ping_space")),
        ):
            assert run_cli(*argv, "--horizon", -1) == 2
            assert capsys.readouterr() == ("", "error: --horizon must be non-negative\n")

    @pytest.mark.parametrize(
        "mode,fixture,flag",
        [
            ("--bundles", "r1_space", "--horizon"),
            ("--gen-system", "r1_system", "--max-nodes"),
            ("--run-protocol", "nack_protocol", "--max-nodes"),
        ],
    )
    def test_flag_the_mode_does_not_take_is_usage_error(self, capsys, mode, fixture, flag):
        assert run_cli("enumerate", fixture_path(fixture), mode, flag, 0) == 2
        assert capsys.readouterr() == ("", f"error: enumerate {mode} does not take {flag}\n")

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_is_usage_error(self, tmp_path, where):
        out = tmp_path / "absent" / "x.json" if where == "missing directory" else tmp_path
        proc = subprocess.run(
            [sys.executable, "-m", "strandlab.cli", "enumerate",
             str(fixture_path("ping_space")), "--bundles", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in proc.stderr

    def test_budget_error_writes_no_out_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "runs.json"
        monkeypatch.setenv("STRANDLAB_MAX_STATES", "10")
        assert run_cli("enumerate", fixture_path("r1_space"), "--translate", "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: enumeration exceeded")
        assert not out.exists()


class TestCheck:
    def test_equal_runs(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            run_cli(
                "enumerate",
                fixture_path("nack_system"),
                "--gen-system",
                "--horizon",
                3,
                "--out",
                out,
            )
        assert run_cli("check", "--equal", a, b) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unequal_runs(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(
            "enumerate", fixture_path("nack_space"), "--translate",
            "--horizon", 6, "--max-nodes", 6, "--out", a,
        )
        run_cli(
            "enumerate", fixture_path("nack_protocol"), "--run-protocol",
            "--horizon", 6, "--out", b,
        )
        assert run_cli("check", "--equal", a, b) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_equal_compares_declared_horizons(self, tmp_path, capsys):
        # an empty run set keeps its document's horizon
        empty = tmp_path / "empty.json"
        empty.write_text(runs_text(["a"], 1, []))
        ping = tmp_path / "ping.json"
        run_cli("enumerate", fixture_path("ping_space"), "--translate", "--horizon", 2, "--out", ping)
        capsys.readouterr()
        assert run_cli("check", "--equal", empty, ping) == 2
        assert capsys.readouterr() == ("", "error: horizon mismatch: [1, 2]\n")

    def test_history_preserving_compares_declared_agents(self, tmp_path, capsys):
        # runs over agents the space does not have share no history with
        # its bundles: a usage error, not a failed clause
        runs = tmp_path / "runs.json"
        runs.write_text(runs_text(["zz"], 1, [[{"zz": []}, {"zz": []}]]))
        assert run_cli("check", "--history-preserving", fixture_path("ping_space"), runs) == 2
        assert capsys.readouterr() == (
            "", "error: agent mismatch: space ['a', 'b'], runs ['zz']\n"
        )

    def test_theorem_3_compares_agents(self, capsys):
        # theorem 3 checks history preservation on the system's runs, so a
        # system of other agents is refused in the same words
        space, system = fixture_path("r1_space"), fixture_path("nack_system")
        assert run_cli("check", "--theorem", 3, space, system) == 2
        assert capsys.readouterr() == (
            "", "error: agent mismatch: space ['1', '2', '3'], runs ['1', '2']\n"
        )

    def test_history_preserving_pass(self, tmp_path, capsys):
        runs = tmp_path / "runs.json"
        run_cli(
            "enumerate", fixture_path("ping_space"), "--translate",
            "--horizon", 4, "--max-nodes", 2, "--out", runs,
        )
        assert (
            run_cli(
                "check", "--history-preserving", fixture_path("ping_space"), runs,
                "--max-nodes", 2,
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "n,fixture",
        [
            (1, "ping_space"),
            (2, "ping_space"),
            (4, "r1_t5_space"),
            (5, "nack_system"),
            (6, "nack_protocol"),
            (7, "u1u2u3_protocol"),
        ],
    )
    def test_theorems_pass_on_fixtures(self, capsys, n, fixture):
        assert run_cli("check", "--theorem", n, fixture_path(fixture)) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_theorem_3_takes_space_and_system(self, capsys):
        assert (
            run_cli(
                "check", "--theorem", 3,
                fixture_path("r1_space"), fixture_path("r1_system"),
            )
            == 0
        )
        assert capsys.readouterr().out.startswith("PASS")

    @pytest.mark.parametrize("n,fixture", [(1, "r1_space"), (2, "nack_space")])
    def test_lemmas_pass_on_fixtures(self, capsys, n, fixture):
        assert run_cli("check", "--lemma", n, fixture_path(fixture)) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_default_max_nodes_covers_the_whole_space(self, tmp_path, capsys):
        # a 3-spoke relay has 12 nodes; a smaller default cap would truncate
        # the enumeration and turn theorem 1 into a false FAIL
        strands = []
        for i in range(1, 4):
            strands.append({"id": f"h{i}", "agent": "hub", "trace": [f"+q{i}", f"-r{i}"]})
            strands.append(
                {"id": f"s{i}", "agent": f"spoke{i}", "trace": [f"-q{i}", f"+r{i}"]}
            )
        relay3 = {
            "kind": "space",
            "messages": [f"{m}{i}" for m in "qr" for i in range(1, 4)],
            "agents": ["hub", "spoke1", "spoke2", "spoke3"],
            "strands": strands,
        }
        path = tmp_path / "relay3.json"
        path.write_text(json.dumps(relay3))
        assert run_cli("check", "--theorem", 1, path, "--horizon", 4) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_theorem_4_needs_conflicts(self, capsys):
        assert run_cli("check", "--theorem", 4, fixture_path("r1_space")) == 2
        assert capsys.readouterr().err == (
            "error: theorem 4 needs an extended space (with conflicts)\n"
        )

    def test_theorems_1_and_3_drop_the_space_s_conflicts(self, tmp_path, capsys):
        # the same output as on the plain space of the same strands; only
        # theorem 4 reads the conflicts
        body = json.loads(fixture_path("r1_t5_space").read_text())
        body["kind"] = "space"
        del body["conflicts"]
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(body))
        outputs = []
        for space in (fixture_path("r1_t5_space"), plain):
            assert run_cli("check", "--theorem", 1, space, "--horizon", 3) == 0
            assert run_cli(
                "check", "--theorem", 3, space, fixture_path("r1_system"), "--max-nodes", 4
            ) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert "445 run prefixes at horizon 3" in outputs[0].out
        assert run_cli("check", "--theorem", 4, fixture_path("r1_t5_space"), "--horizon", 3) == 0
        assert "37 run prefixes at horizon 3" in capsys.readouterr().out

    def test_wrong_document_kind_is_usage_error(self, capsys):
        swapped = (fixture_path("r1_system"), fixture_path("r1_space"))
        assert run_cli("check", "--theorem", 3, *swapped) == 2
        assert capsys.readouterr().err == (
            "error: a space file required, got a system file\n"
        )

    @pytest.mark.parametrize(
        "check,flag",
        [
            ("--theorem 3", "--horizon"),
            ("--lemma 1", "--horizon"),
            ("--lemma 2", "--horizon"),
            ("--equal", "--horizon"),
            ("--history-preserving", "--horizon"),
            ("--theorem 5", "--max-nodes"),
            ("--theorem 6", "--max-nodes"),
            ("--equal", "--max-nodes"),
        ],
    )
    def test_flag_the_check_does_not_take_is_usage_error(self, tmp_path, capsys, check, flag):
        runs = tmp_path / "runs.json"
        run_cli("enumerate", fixture_path("ping_space"), "--translate", "--horizon", 2, "--out", runs)
        inputs = {
            "--theorem 3": (fixture_path("r1_space"), fixture_path("r1_system")),
            "--lemma 1": (fixture_path("r1_space"),),
            "--lemma 2": (fixture_path("r1_space"),),
            "--equal": (runs, runs),
            "--history-preserving": (fixture_path("ping_space"), runs),
            "--theorem 5": (fixture_path("nack_system"),),
            "--theorem 6": (fixture_path("nack_protocol"),),
        }[check]
        capsys.readouterr()
        assert run_cli("check", *check.split(), *inputs, flag, 3) == 2
        assert capsys.readouterr() == ("", f"error: check {check} does not take {flag}\n")

    def test_theorem_7_rejects_non_monotone(self, capsys):
        assert run_cli("check", "--theorem", 7, fixture_path("nack_protocol")) == 2
        assert "monotone" in capsys.readouterr().err

    def test_wrong_arity_is_usage_error(self):
        assert run_cli("check", "--theorem", 1) == 2


def test_import_loads_no_dataclass_machinery():
    # a fresh interpreter; only the modules the import adds count, so a
    # site hook that loads either one cannot fail the test
    code = (
        "import sys; before = set(sys.modules); import strandlab.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "strandlab.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_2_without_a_traceback(unbuffered):
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    cli = [sys.executable, "-m", "strandlab.cli"]
    # closed after the first line of a 0.5 MB document, far more than a
    # pipe holds, so the rest is still being written
    proc = subprocess.Popen(
        [*cli, "enumerate", str(fixture_path("r1_space")), "--translate"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (2, b"")
    # closed before the first line
    for args in (
        ["check", "--theorem", "5", str(fixture_path("nack_system"))],
        ["validate", str(fixture_path("r1_space"))],
    ):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([*cli, *args], stdout=write, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (2, b"")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "strandlab.cli", "validate", str(fixture_path("r1_space"))],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"
