import json
import re

import pytest

from orbitpn import Marking, cli, engine, models, trace_io
from orbitpn.netfile import load_net
import reference

SATSAT_ARGS = [
    "--env", "collision_prob=0.5,T1=5,eps=1",
    "--env-at", "1:clock=5",
    "--env-at", "2:clock=6",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    @pytest.mark.parametrize("name", models.NAMES)
    def test_bundled_nets_ok(self, capsys, name):
        code, out, err = run(capsys, "validate", models.model_path(name))
        assert code == 0
        assert "OK" in out

    def test_report_includes_order_and_signs(self, capsys):
        code, out, _ = run(capsys, "validate", models.model_path("debris_disposal"))
        assert code == 0
        assert "order: 4" in out
        assert "P1 (+)" in out and "P2 (-)" in out

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

    def test_debris_final_marking(self, capsys):
        code, out, _ = run(
            capsys, "fire", models.model_path("debris_disposal"),
            "--seq", "t1,t2,t3", "--env", "collision_prob=0.5",
        )
        assert code == 0
        assert "final marking: P1=S" in out

    def test_swap_composed_with_itself_is_identity(self, capsys):
        code, out, _ = run(capsys, "fire", models.model_path("swap_infinite"),
                           "--seq", "t1,t2")
        assert code == 0
        assert "final marking: P1=x, P2=y" in out

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

    def test_guard_blocked_reports_reason(self, capsys):
        code, _, err = run(
            capsys, "fire", models.model_path("satellite_swap"),
            "--seq", "t1", "--env", "collision_prob=0,T1=5,eps=1,clock=5",
        )
        assert code == 1
        assert "guard is false" in err

    def test_unknown_transition_usage_error(self, capsys):
        code, _, err = run(capsys, "fire", models.model_path("swap_infinite"),
                           "--seq", "t9")
        assert code == 2

    def test_unbound_guard_variable_usage_error(self, capsys):
        code, _, err = run(capsys, "fire", models.model_path("satellite_swap"),
                           "--seq", "t1", "--env", "collision_prob=0.5")
        assert code == 2
        assert "clock" in err or "T1" in err

    def test_bad_env_value(self, capsys):
        code, _, err = run(capsys, "fire", models.model_path("swap_infinite"),
                           "--seq", "t1", "--env", "clock=abc")
        assert code == 2

    def test_env_at_out_of_range(self, capsys):
        code, _, err = run(capsys, "fire", models.model_path("swap_infinite"),
                           "--seq", "t1", "--env-at", "3:clock=1")
        assert code == 2

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

    def test_exact_mode_flag(self, capsys):
        code, out, _ = run(capsys, "fire", models.model_path("swap_infinite"),
                           "--seq", "t1,t2", "--mode", "exact")
        assert code == 0
        assert "final marking: P1=x, P2=y" in out


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

    def test_swap_four_single_steps(self, capsys):
        code, out, _ = run(capsys, "simulate", models.model_path("swap_infinite"),
                           "--steps", "4", "--policy", "single")
        assert code == 0
        assert "events: 4" in out
        assert "final marking: P1=x, P2=y" in out
        assert "deadlock: no" in out

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

    def test_guard_blocked_simulation_is_a_clean_deadlock(self, capsys):
        code, out, _ = run(
            capsys, "simulate", models.model_path("debris_disposal"),
            "--steps", "3", "--env", "collision_prob=0",
        )
        assert code == 0
        assert "events: 0" in out
        assert "deadlock: yes" in out


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
    def test_classifier_grid(self, capsys):
        code, out, _ = run(capsys, "incidence", models.model_path("orbit_classes"))
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows[0] == ["t1", "t2"]
        assert rows[1] == ["P1", "-A", "0"]
        assert rows[2] == ["P2", "0", "-B"]
        assert rows[3] == ["P3", "-C", "0"]
        assert rows[4] == ["P4", "0", "-D"]
        assert rows[5] == ["P5", "A+C", "0"]
        assert rows[6] == ["P6", "0", "B+D"]

    def test_satellite_swap_grid(self, capsys):
        code, out, _ = run(capsys, "incidence", models.model_path("satellite_swap"))
        assert code == 0
        assert "y-x" in out and "x-y" in out

    def test_no_arc_net_all_zero(self, capsys, tmp_path):
        bare = tmp_path / "bare.opn"
        bare.write_text("[colors]\na\n[places]\nP1 +\n[transitions]\nt1\n")
        code, out, _ = run(capsys, "incidence", str(bare))
        assert code == 0
        assert out.strip().splitlines()[1].split() == ["P1", "0"]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "incidence", models.model_path("debris_disposal"),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["places"] == ["P1", "P2", "P3", "P4"]
        assert payload["transitions"] == ["t1", "t2", "t3"]
        assert payload["entries"][0] == [{"S": -1}, {"S": 1}, {}]


class TestReach:
    def test_classifier_confirmed(self, capsys):
        code, out, _ = run(
            capsys, "reach", models.model_path("orbit_classes"),
            "--target", "P5=A+C; P6=B+D", "--bound", "4", "--confirm",
        )
        assert code == 0
        assert "X = (1, 1)" in out
        assert "necessary, not sufficient" in out
        assert "target reached at depth 2" in out

    def test_debris_confirmed(self, capsys):
        code, out, _ = run(
            capsys, "reach", models.model_path("debris_disposal"),
            "--target", "P1=S", "--bound", "6", "--confirm",
            "--env", "collision_prob=0.5",
        )
        assert code == 0
        assert "X = (1, 1, 1)" in out
        assert "target reached at depth 3" in out

    def test_no_witness(self, capsys):
        code, out, _ = run(
            capsys, "reach", models.model_path("swap_infinite"),
            "--target", "P1=x+y", "--bound", "6",
        )
        assert code == 0
        assert "no witness" in out

    def test_no_witness_with_expect_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "reach", models.model_path("swap_infinite"),
            "--target", "P1=x+y", "--bound", "6", "--expect",
        )
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--bound", "-1"], "--bound must be >= 0"),
        (["--bound", "6", "--confirm", "--max-states", "0"], "--max-states must be >= 1"),
    ])
    def test_bad_bound_usage_error(self, capsys, flags, message):
        code, out, err = run(capsys, "reach", models.model_path("swap_infinite"),
                             "--target", "P1=x+y", *flags)
        assert code == 2
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_witness_without_executability(self, capsys, tmp_path):
        # the algebraic condition holds, but the guard forbids every firing
        code, out, _ = run(
            capsys, "reach", models.model_path("debris_disposal"),
            "--target", "P1=S", "--bound", "6", "--confirm",
            "--env", "collision_prob=0",
        )
        assert code == 0
        assert "X = (1, 1, 1)" in out
        assert "NOT reached" in out


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
        trace = reference.trace_from_document(doc, net.colors)
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
        (lambda doc: doc["events"].append(7), "step 3: event is not a JSON object"),
        (lambda doc: doc["events"][1].update(transition=["t2"]),
         "step 2: 'transition' is not a JSON string"),
        # a mode or environment the engine refuses
        (lambda doc: doc.update(mode="loose"), "step 1: unknown containment mode 'loose'"),
        (lambda doc: doc.update(mode=["subset"]), "step 1: unknown containment mode ['subset']"),
        (lambda doc: doc["events"][1]["env"].pop("eps"),
         "step 2: unbound environment variable 'eps'"),
        # a place outside the net, which replay carries over from `initial`
        (lambda doc: doc["events"][0]["marking"].update(Z="x"),
         "step 1: replay produced P1=y, P2=x, document records P1=y, P2=x, Z=x"),
        (lambda doc: [doc["initial"].update(Z="x"), doc["events"][0]["marking"].update(Z="2x")],
         "step 1: replay produced P1=y, P2=x, Z=x, document records P1=y, P2=x, Z=2x"),
    ], ids=["initial", "events", "final", "net", "env", "marking", "transition",
            "unknown-transition", "other-net", "undeclared-color", "not-enabled",
            "marking-string", "initial-list", "env-string", "env-list", "events-number",
            "marking-value-number", "final-value-number", "env-value-string", "event-number",
            "transition-list", "mode-string", "mode-list", "env-unbound", "outside-added",
            "outside-changed"])
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
    # `initial`, of the events step by step, `net`, `mode`, the replay step
    # by step, `final`
    @pytest.mark.parametrize("damages, message", [
        ([lambda doc: doc["events"][0].update(transition="t2"), lambda doc: doc["events"][2].pop("env")],
         "step 3: missing 'env'"),
        ([lambda doc: doc["events"][0].update(marking={"P1": "x", "P2": "y"}),
          lambda doc: doc["events"][2]["marking"].update(P1="q")],
         "step 3: 'marking': unknown color 'q' (at offset 0)"),
        ([lambda doc: doc["initial"].update(P1=3), lambda doc: doc["events"][0].pop("env")],
         "document: 'initial': place 'P1' holds 3, not a weight expression"),
        ([lambda doc: doc["events"][3].pop("step"), lambda doc: doc.pop("net")], "step 4: missing 'step'"),
        ([lambda doc: doc.update(net="other"), lambda doc: doc.update(mode="loose")],
         "document is for net 'other', not 'swap_infinite'"),
        ([lambda doc: doc.update(net="other"), lambda doc: doc["events"][0].update(marking={"P1": "x"})],
         "document is for net 'other', not 'swap_infinite'"),
        ([lambda doc: doc.update(mode="loose"), lambda doc: doc["events"][0].update(transition="t9")],
         "step 1: unknown containment mode 'loose'"),
        ([lambda doc: doc["events"][1].update(transition="t1"), lambda doc: doc.pop("final")],
         "step 2: transition 't1' not enabled: token calling unsatisfied at 'P1': arc calls x, "
         "place holds y"),
        ([lambda doc: doc["events"][0].update(transition="t9"),
          lambda doc: doc["events"][1].update(marking={"P1": "y", "P2": "x"})],
         "step 1: unknown transition 't9'"),
    ], ids=["shape-before-not-enabled", "shape-before-mismatch", "initial-before-events",
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
