import json
import os
import re
import subprocess
import sys

import pytest

from orbitpn import Marking, cli, engine, models, trace_io
from orbitpn.netfile import load_net
import reference
from conftest import FAN_WIDTH
from test_cli_transcript import ROOT, check

SATSAT_ARGS = [
    "--env", "collision_prob=0.5,T1=5,eps=1",
    "--env-at", "1:clock=5",
    "--env-at", "2:clock=6",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def replays(command):
    """A test that the transcript block of `command`, which holds what the test
    of this name once asserted, replays unchanged."""
    def test(self, monkeypatch):
        check(command, monkeypatch)
    return test


class TestValidate:
    @pytest.mark.parametrize("name", models.NAMES)
    def test_bundled_nets_ok(self, monkeypatch, name):
        check(f"validate src/orbitpn/models/{name}.opn", monkeypatch)

    test_report_includes_order_and_signs = replays("validate src/orbitpn/models/debris_disposal.opn")

    def test_corrupted_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.opn"
        bad.write_text("[places]\nP1 *\n")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_violations_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.opn"
        bad.write_text("[colors]\na\n[places]\nP1 +\nP1 +\n")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "INVALID" in out
        assert "duplicate id" in out

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.opn"))
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["validate"], ["fire", "--seq", "t1"], ["simulate", "--steps", "1"], ["incidence"],
        ["reach", "--target", "P1=x", "--bound", "1"],
    ], ids=lambda command: command[0])
    def test_not_utf8_exit_2(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.opn"
        path.write_bytes(b"[net]\nname = caf\xe9\n")
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert err.startswith("error:") and "byte offset 16" in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("guard", [
        "(" * 1500 + "a > 1" + ")" * 1500,
        "not " * 3000 + "a > 1",
        " and ".join(["a > 1"] * 1500),
        " + ".join(["a"] * 1500) + " > 1",
    ], ids=["parentheses", "not", "and", "sum"])
    @pytest.mark.parametrize("command", [["validate"], ["fire", "--seq", "t1"]])
    def test_deep_guard_exit_2(self, capsys, tmp_path, guard, command):
        path = tmp_path / "deep.opn"
        path.write_text(f"[colors]\nx\n[places]\nP1 +\n[transitions]\nt1 : {guard}\n"
                        "[arcs]\nP1 -> t1 : x\n[marking]\nP1 = x\n")
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert err.startswith("error:") and "nested more than" in err
        assert "Traceback" not in out + err


class TestFire:
    def test_maneuver_final_marking(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        code, out, _ = run(
            capsys, "fire", models.model_path("satellite_swap"),
            "--seq", "t1,t2", *SATSAT_ARGS, "--out", str(out_file),
        )
        assert code == 0
        assert "final marking: P1=x, P2=y" in out
        doc = json.loads(out_file.read_text())
        assert doc["final"] == {"P1": "x", "P2": "y"}
        assert doc["events"][0]["marking"] == {"P1": "y", "P2": "x"}

    test_debris_final_marking = replays(
        "fire src/orbitpn/models/debris_disposal.opn --seq t1,t2,t3 --env collision_prob=0.5")
    test_swap_composed_with_itself_is_identity = replays("fire src/orbitpn/models/swap_infinite.opn --seq t1,t2")

    def test_not_enabled_exit_1_with_prefix(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        code, out, err = run(
            capsys, "fire", models.model_path("swap_infinite"),
            "--seq", "t1,t1", "--out", str(out_file),
        )
        assert code == 1
        assert "step 2" in err
        assert "prefix trace (1 event(s))" in out
        doc = json.loads(out_file.read_text())
        assert doc["final"] == {"P1": "y", "P2": "x"}

    test_guard_blocked_reports_reason = replays(
        "fire src/orbitpn/models/satellite_swap.opn --seq t1 --env collision_prob=0,T1=5,eps=1,clock=5")
    test_unknown_transition_usage_error = replays("fire src/orbitpn/models/swap_infinite.opn --seq t9")
    test_unbound_guard_variable_usage_error = replays(
        "fire src/orbitpn/models/satellite_swap.opn --seq t1 --env collision_prob=0.5")
    test_bad_env_value = replays("fire src/orbitpn/models/swap_infinite.opn --seq t1 --env clock=abc")
    test_env_at_out_of_range = replays("fire src/orbitpn/models/swap_infinite.opn --seq t1 --env-at 3:clock=1")

    def test_env_at_accepts_multiple_pairs(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        code, out, _ = run(
            capsys, "fire", models.model_path("satellite_swap"),
            "--seq", "t1,t2", "--env", "collision_prob=0.5",
            "--env-at", "1:clock=5,T1=5,eps=1",
            "--env-at", "2:clock=6,T1=5,eps=1",
            "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["events"][0]["env"]["T1"] == 5.0
        assert doc["events"][1]["env"]["clock"] == 6.0

    def test_unfired_guard_read_only_for_the_document(self, capsys, tmp_path):
        # t2's guard reads eps; only the trace document's deadlock flag
        # evaluates it, so only --out needs it bound
        argv = ("fire", models.model_path("satellite_swap"), "--seq", "t1",
                "--env", "collision_prob=0.5,clock=5,T1=5")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "final marking: P1=y, P2=x" in out
        out_file = tmp_path / "trace.json"
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert code == 2
        assert "unbound environment variable 'eps'" in err
        assert out == "" and not out_file.exists()

    test_exact_mode_flag = replays("fire src/orbitpn/models/swap_infinite.opn --seq t1,t2 --mode exact")


class TestSimulate:
    def test_classifier_one_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        code, out, _ = run(
            capsys, "simulate", models.model_path("orbit_classes"),
            "--steps", "1", "--out", str(out_file),
        )
        assert code == 0
        assert "final marking: P5=A+C, P6=B+D" in out
        doc = json.loads(out_file.read_text())
        assert [e["transition"] for e in doc["events"]] == ["t1", "t2"]

    test_swap_four_single_steps = replays("simulate src/orbitpn/models/swap_infinite.opn --steps 4 --policy single")

    def test_deadlocked_net_zero_events(self, capsys, tmp_path):
        quiet = tmp_path / "quiet.opn"
        quiet.write_text(
            "[colors]\na\n[places]\nP1 +\n[transitions]\nt1\n"
            "[arcs]\nP1 -> t1 : a\nt1 -> P1 : a\n"
        )  # no tokens anywhere, so t1 never fires
        code, out, _ = run(capsys, "simulate", str(quiet), "--steps", "10")
        assert code == 0
        assert "events: 0" in out
        assert "deadlock: yes" in out

    test_guard_blocked_simulation_is_a_clean_deadlock = replays(
        "simulate src/orbitpn/models/debris_disposal.opn --steps 3 --env collision_prob=0")

    def test_thousand_steps_end_at_the_known_marking(self, capsys):
        # its fields are sized from the token total (one byte), not from 2000 firings
        code, out, _ = run(capsys, "simulate", models.model_path("swap_infinite"), "--steps", "1000")
        assert code == 0
        assert out.endswith("final marking: P1=x, P2=y\nevents: 2000; deadlock: no\n")


class TestBadFlagValues:
    """A malformed flag value is a usage error with a message naming it, and
    exit 2, before anything fires."""

    @pytest.mark.parametrize("command", [
        "fire src/orbitpn/models/swap_infinite.opn --seq t1 --env clock",
        "fire src/orbitpn/models/swap_infinite.opn --seq t1 --env =1",
        "fire src/orbitpn/models/swap_infinite.opn --seq t1 --env clock=inf",
        "fire src/orbitpn/models/swap_infinite.opn --seq t1 --env-at 1",
        "fire src/orbitpn/models/swap_infinite.opn --seq t1 --env-at x:clock=1",
        "simulate src/orbitpn/models/swap_infinite.opn --steps -1",
    ], ids=["env-no-equals", "env-no-name", "env-infinite", "env-at-no-step",
            "env-at-step-text", "negative-steps"])
    def test_usage_error(self, monkeypatch, command):
        check(command, monkeypatch)

    # the block beside it, with the pairs written without gaps, is the same
    test_empty_env_pairs_are_skipped = replays(
        "fire src/orbitpn/models/satellite_swap.opn --seq t1 --env ' , collision_prob=0.5,,clock=5' --env T1=5,eps=1,")


BYSTANDER_NET = (
    "[colors]\nx, y\n[places]\nP1 +\nP2 -\n[transitions]\nt1\nt2\n"
    "[arcs]\nP1 -> t1 : x\nt1 -> P2 : x\nP2 -> t2 : x\nt2 -> P1 : x\n"
    "[marking]\nP1 = x + y\n"
)  # y is a bystander at P1: in exact mode x cannot leave


class TestModeFlag:
    """`simulate` and `reach --confirm` take `--mode` as `fire` does."""

    def test_simulate_modes_differ_on_a_bystander(self, capsys, tmp_path):
        path = tmp_path / "bystander.opn"
        path.write_text(BYSTANDER_NET)
        code, out, _ = run(capsys, "simulate", str(path), "--steps", "2")
        assert code == 0
        assert "  step 1: t1 -> P1=y, P2=x" in out
        assert "events: 4; deadlock: no" in out
        out_file = tmp_path / "trace.json"
        code, out, _ = run(capsys, "simulate", str(path), "--steps", "2", "--mode", "exact",
                           "--out", str(out_file))
        assert code == 0
        assert out == "final marking: P1=x+y\nevents: 0; deadlock: yes\n"
        doc = json.loads(out_file.read_text())
        assert doc["mode"] == "exact" and doc["deadlock"] is True
        assert trace_io.replay(load_net(path), doc) == Marking({"P1": ["x", "y"]})

    def test_reach_confirmation_follows_the_mode(self, capsys, tmp_path):
        path = tmp_path / "bystander.opn"
        path.write_text(BYSTANDER_NET)
        argv = ("reach", str(path), "--target", "P1=y; P2=x", "--bound", "2", "--confirm")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "X = (1, 0)" in out
        assert "BFS confirmation: target reached at depth 1" in out
        code, out, _ = run(capsys, *argv, "--mode", "exact")
        assert code == 0
        assert "X = (1, 0)" in out  # the state equation knows no modes
        assert "BFS confirmation: target NOT reached within depth 2\n" in out

    @pytest.mark.parametrize("argv", [
        ("simulate", "--steps", "2"),
        ("reach", "--target", "P1=y", "--bound", "2", "--confirm"),
    ], ids=["simulate", "reach"])
    def test_unknown_mode_exits_2(self, capsys, argv):
        sub, *flags = argv
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, models.model_path("swap_infinite"), *flags, "--mode", "loose"])
        assert exc.value.code == 2
        assert "invalid choice: 'loose'" in capsys.readouterr().err


class TestIncidence:
    test_classifier_grid = replays("incidence src/orbitpn/models/orbit_classes.opn")
    test_satellite_swap_grid = replays("incidence src/orbitpn/models/satellite_swap.opn")

    def test_no_arc_net_all_zero(self, capsys, tmp_path):
        bare = tmp_path / "bare.opn"
        bare.write_text("[colors]\na\n[places]\nP1 +\n[transitions]\nt1\n")
        code, out, _ = run(capsys, "incidence", str(bare))
        assert code == 0
        assert out.strip().splitlines()[1].split() == ["P1", "0"]

    test_json_format = replays("incidence src/orbitpn/models/debris_disposal.opn --format json")


class TestReach:
    test_classifier_confirmed = replays(
        "reach src/orbitpn/models/orbit_classes.opn --target 'P5=A+C; P6=B+D' --bound 4 --confirm")
    test_debris_confirmed = replays(
        "reach src/orbitpn/models/debris_disposal.opn --target P1=S --bound 6 --confirm --env collision_prob=0.5")
    test_no_witness = replays("reach src/orbitpn/models/swap_infinite.opn --target P1=x+y --bound 6")
    test_no_witness_with_expect_exit_1 = replays(
        "reach src/orbitpn/models/swap_infinite.opn --target P1=x+y --bound 6 --expect")
    # the witness holds, but the guard forbids every firing
    test_witness_without_executability = replays(
        "reach src/orbitpn/models/debris_disposal.opn --target P1=S --bound 6 --confirm --env collision_prob=0")

    @pytest.mark.parametrize("command", [
        "reach src/orbitpn/models/swap_infinite.opn --target P1=x+y --bound -1",
        "reach src/orbitpn/models/swap_infinite.opn --target P1=x+y --bound 6 --confirm --max-states 0",
    ], ids=["flags0---bound must be >= 0", "flags1---max-states must be >= 1"])
    def test_bad_bound_usage_error(self, monkeypatch, command):
        check(command, monkeypatch)

    def test_more_transitions_than_the_recursion_limit(self, fan_path):
        # the installed `opn` runs `cli.main` as this child does, and an error
        # that escapes it prints a traceback and exits 1
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "orbitpn.cli", "reach", str(fan_path),
             "--target", "P1=x", "--bound", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout.startswith("witness: X = (0, 0, ")
        assert f"t{FAN_WIDTH - 2}=0, t{FAN_WIDTH - 1}=1]" in result.stdout


class TestTraceDocuments:
    def test_fire_trace_replays(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        code, _, _ = run(
            capsys, "fire", models.model_path("debris_disposal"),
            "--seq", "t1,t2,t3", "--env", "collision_prob=0.5",
            "--out", str(out_file),
        )
        assert code == 0
        net = load_net(models.model_path("debris_disposal"))
        doc = trace_io.read_trace(out_file)
        assert trace_io.replay(net, doc) == Marking({"P1": ["S"]})

    def test_simulate_trace_replays(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        code, _, _ = run(
            capsys, "simulate", models.model_path("swap_infinite"),
            "--steps", "3", "--out", str(out_file),
        )
        assert code == 0
        net = load_net(models.model_path("swap_infinite"))
        doc = trace_io.read_trace(out_file)
        final = trace_io.replay(net, doc)
        assert trace_io.marking_to_strings(final) == doc["final"]

    def test_document_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        run(
            capsys, "fire", models.model_path("satellite_swap"),
            "--seq", "t1,t2", *SATSAT_ARGS, "--out", str(out_file),
        )
        net = load_net(models.model_path("satellite_swap"))
        doc = trace_io.read_trace(out_file)
        trace = reference.trace_from_document(doc, net)
        assert trace_io.trace_document(net, trace, doc["mode"]) == doc

    def test_tampered_document_rejected(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        run(
            capsys, "fire", models.model_path("swap_infinite"),
            "--seq", "t1", "--out", str(out_file),
        )
        net = load_net(models.model_path("swap_infinite"))
        doc = trace_io.read_trace(out_file)
        doc["final"] = {"P1": "x", "P2": "y"}
        with pytest.raises(trace_io.ReplayError):
            trace_io.replay(net, doc)

    # (damage, error message)
    @pytest.mark.parametrize("damage, message", [
        (lambda doc: doc.pop("initial"), "document: missing 'initial'"),
        (lambda doc: doc.pop("events"), "document: missing 'events'"),
        (lambda doc: doc.pop("final"), "document: missing 'final'"),
        (lambda doc: doc.pop("net"), "document: missing 'net'"),
        (lambda doc: doc["events"][1].pop("env"), "step 2: missing 'env'"),
        (lambda doc: doc["events"][0].pop("marking"), "step 1: missing 'marking'"),
        (lambda doc: doc["events"][1].pop("transition"), "step 2: missing 'transition'"),
        (lambda doc: doc["events"][1].update(transition="t9"), "step 2: unknown transition 't9'"),
        (lambda doc: doc.update(net="other"), "for net 'other', not 'satellite_swap'"),
        (lambda doc: doc["initial"].update(P1="q"), "document: 'initial': unknown color 'q'"),
        (lambda doc: doc["events"][1].update(transition="t1"),
         "step 2: transition 't1' not enabled"),
        # fields of the wrong JSON type
        (lambda doc: doc["events"][0].update(marking="P1=y"), "step 1: 'marking' is not a JSON object"),
        (lambda doc: doc.update(initial=["x"]), "document: 'initial' is not a JSON object"),
        (lambda doc: doc["events"][1].update(env="clock=6"), "step 2: 'env' is not a JSON object"),
        (lambda doc: doc["events"][0].update(env=[5]), "step 1: 'env' is not a JSON object"),
        (lambda doc: doc.update(events=3), "document: 'events' is not a JSON array"),
        (lambda doc: doc["events"][1]["marking"].update(P1=3),
         "step 2: 'marking': place 'P1' holds 3, not a weight expression"),
        (lambda doc: doc["final"].update(P2=1.5),
         "document: 'final': place 'P2' holds 1.5, not a weight expression"),
        (lambda doc: doc["events"][0]["env"].update(clock="zz"),
         "step 1: 'env': 'clock' is 'zz', not a number"),
        (lambda doc: doc["events"][0]["env"].update(clock=json.loads("1" + "0" * 400)),
         f"step 1: 'env': 'clock' is 1{'0' * 400}, not a number"),
        (lambda doc: doc["events"].append(7), "step 3: event is not a JSON object"),
        (lambda doc: doc["events"][1].update(transition=["t2"]),
         "step 2: 'transition' is not a JSON string"),
        # a step that is not the event's 1-based position, as an int
        (lambda doc: doc["events"][1].pop("step"), "step 2: missing 'step'"),
        (lambda doc: doc["events"][1].update(step=7), "step 2: 'step' is 7, not 2"),
        (lambda doc: doc["events"][0].update(step="1"), "step 1: 'step' is '1', not 1"),
        (lambda doc: doc["events"][0].update(step=True), "step 1: 'step' is True, not 1"),
        (lambda doc: doc["events"][0].update(step=1.0), "step 1: 'step' is 1.0, not 1"),
        (lambda doc: [doc["events"][0].update(step="banana"), doc["events"][1].update(step=[1])],
         "step 1: 'step' is 'banana', not 1"),
        (lambda doc: [doc["events"][1].update(step=[1]), doc["events"][1].update(transition="t9")],
         "step 2: 'step' is [1], not 2"),
        # a mode or environment the engine refuses
        (lambda doc: doc.update(mode="loose"), "document: unknown containment mode 'loose'"),
        (lambda doc: doc.update(mode=["subset"]), "document: unknown containment mode ['subset']"),
        (lambda doc: doc["events"][1]["env"].pop("eps"),
         "step 2: unbound environment variable 'eps'"),
        # a place outside the net: a recording that names one diverges, and
        # an `initial` that names one is refused before any event is read
        (lambda doc: doc["events"][0]["marking"].update(Z="x"),
         "step 1: replay produced P1=y, P2=x, document records P1=y, P2=x, Z=x"),
        (lambda doc: [doc["initial"].update(Z="x"), doc["events"][0]["marking"].update(Z="2x")],
         "document: 'initial': marking references unknown place 'Z'"),
    ], ids=["initial", "events", "final", "net", "env", "marking", "transition",
            "unknown-transition", "other-net", "undeclared-color", "not-enabled",
            "marking-string", "initial-list", "env-string", "env-list", "events-number",
            "marking-value-number", "final-value-number", "env-value-string", "env-value-huge",
            "event-number",
            "transition-list", "step-missing", "step-other", "step-string", "step-bool",
            "step-float", "step-banana", "step-list", "mode-string", "mode-list", "env-unbound",
            "outside-added", "outside-changed"])
    def test_bad_document_replay_error(self, capsys, tmp_path, damage, message):
        out_file = tmp_path / "trace.json"
        run(
            capsys, "fire", models.model_path("satellite_swap"),
            "--seq", "t1,t2", *SATSAT_ARGS, "--out", str(out_file),
        )
        net = load_net(models.model_path("satellite_swap"))
        doc = trace_io.read_trace(out_file)
        damage(doc)
        with pytest.raises(trace_io.ReplayError, match=re.escape(message)):
            trace_io.replay(net, doc)

    @pytest.mark.parametrize("mode", ["loose", ["subset"]], ids=["string", "list"])
    def test_unknown_mode_without_events(self, mode):
        # the mode is checked even when no event is fired under it
        net = models.load("swap_infinite")
        doc = trace_io.trace_document(net, engine.fire_sequence(net, net.initial_marking, [], []))
        assert doc["events"] == [] and trace_io.replay(net, doc) == net.initial_marking
        doc["mode"] = mode
        for replay in (trace_io.replay, reference.replay):
            with pytest.raises(trace_io.ReplayError) as exc:
                replay(net, doc)
            assert str(exc.value) == f"document: unknown containment mode {mode!r}"

    def test_document_not_an_object(self):
        net = models.load("swap_infinite")
        with pytest.raises(trace_io.ReplayError, match="^document is not a JSON object$"):
            trace_io.replay(net, [{"net": "swap_infinite"}])

    # a later step that names an unknown transition, or one not enabled there
    @pytest.mark.parametrize("later", ["t9", "t1"], ids=["unknown", "not-enabled"])
    def test_earliest_step_reported(self, later):
        net = models.load("swap_infinite")
        trace = engine.fire_sequence(net, net.initial_marking, ["t1", "t2", "t1", "t2"], [{}] * 4)
        doc = trace_io.trace_document(net, trace)
        doc["events"][1]["marking"] = {"P1": "y", "P2": "x"}
        doc["events"][3]["transition"] = later
        with pytest.raises(trace_io.ReplayError) as exc:
            trace_io.replay(net, doc)
        assert str(exc.value) == "step 2: replay produced P1=x, P2=y, document records P1=y, P2=x"

    # two faults each; the first in this order is reported: the shape of
    # `initial`, its places (the first outside the net, sorted), the shape of
    # the events step by step, `net`, `mode`, the replay step by step, `final`
    @pytest.mark.parametrize("damages, message", [
        ([lambda doc: doc["events"][0].update(transition="t2"), lambda doc: doc["events"][2].pop("env")],
         "step 3: missing 'env'"),
        ([lambda doc: doc["events"][0].update(marking={"P1": "x", "P2": "y"}),
          lambda doc: doc["events"][2]["marking"].update(P1="q")],
         "step 3: 'marking': unknown color 'q' (at offset 0)"),
        ([lambda doc: doc["initial"].update(P1=3), lambda doc: doc["events"][0].pop("env")],
         "document: 'initial': place 'P1' holds 3, not a weight expression"),
        ([lambda doc: doc["initial"].update(A="x"), lambda doc: doc["initial"].update(Z=3)],
         "document: 'initial': place 'Z' holds 3, not a weight expression"),
        ([lambda doc: doc["initial"].update(Z="x", A="y"), lambda doc: doc.pop("events")],
         "document: 'initial': marking references unknown place 'A'"),
        ([lambda doc: doc["events"][3].pop("step"), lambda doc: doc.pop("net")], "step 4: missing 'step'"),
        ([lambda doc: doc.update(net="other"), lambda doc: doc.update(mode="loose")],
         "document is for net 'other', not 'swap_infinite'"),
        ([lambda doc: doc.update(net="other"), lambda doc: doc["events"][0].update(marking={"P1": "x"})],
         "document is for net 'other', not 'swap_infinite'"),
        ([lambda doc: doc.update(mode="loose"), lambda doc: doc["events"][0].update(transition="t9")],
         "document: unknown containment mode 'loose'"),
        ([lambda doc: doc["events"][1].update(transition="t1"), lambda doc: doc.pop("final")],
         "step 2: transition 't1' not enabled: token calling unsatisfied at 'P1': arc calls x, "
         "place holds y"),
        ([lambda doc: doc["events"][0].update(transition="t9"),
          lambda doc: doc["events"][1].update(marking={"P1": "y", "P2": "x"})],
         "step 1: unknown transition 't9'"),
    ], ids=["shape-before-not-enabled", "shape-before-mismatch", "initial-before-events",
            "initial-shape-before-places", "initial-places-before-events",
            "events-before-net", "net-before-mode", "net-before-mismatch", "mode-before-unknown",
            "not-enabled-before-final", "unknown-before-mismatch"])
    def test_fault_order(self, damages, message):
        net = models.load("swap_infinite")
        trace = engine.fire_sequence(net, net.initial_marking, ["t1", "t2", "t1", "t2"], [{}] * 4)
        doc = trace_io.trace_document(net, trace)
        for damage in damages:
            damage(doc)
        for replay in (trace_io.replay, reference.replay):
            with pytest.raises(trace_io.ReplayError) as exc:
                replay(net, doc)
            assert str(exc.value) == message

    def test_earliest_step_reported_before_unbound_variable(self, satsat_net, satsat_envs):
        trace = engine.fire_sequence(satsat_net, satsat_net.initial_marking, ["t1", "t2"],
                                     satsat_envs)
        doc = trace_io.trace_document(satsat_net, trace)
        del doc["events"][1]["env"]["eps"]
        with pytest.raises(trace_io.ReplayError, match="^step 2: unbound environment variable 'eps'$"):
            trace_io.replay(satsat_net, doc)
        doc["events"][0]["marking"] = {"P1": "x", "P2": "y"}
        with pytest.raises(trace_io.ReplayError) as exc:
            trace_io.replay(satsat_net, doc)
        assert str(exc.value) == "step 1: replay produced P1=y, P2=x, document records P1=x, P2=y"
