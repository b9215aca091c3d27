from __future__ import annotations

import json

import pytest

from fastslow.cli import main
from systems import inhibition_relation, inhibition_relation_transformed


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLtsCommand:
    def test_counts_and_json_document(self, fixtures, capsys, tmp_path):
        out_path = tmp_path / "full.json"
        code, out, _ = run(
            capsys, "lts", fixtures / "inhibition_full.bp", "--out", out_path
        )
        assert code == 0
        assert "18 states, 36 transitions" in out
        doc = json.loads(out_path.read_text())
        assert len(doc["states"]) == 18
        assert len(doc["transitions"]) == 36
        assert doc["species"] == ["S", "E", "I", "P", "EI", "SE"]

    def test_reduced_counts(self, fixtures, capsys):
        code, out, err = run(capsys, "lts", fixtures / "inhibition_reduced.bp")
        assert code == 0
        assert "6 states, 5 transitions" in err  # counts go to stderr without --out
        assert json.loads(out)["initial"] == 0

    def test_dot_format(self, fixtures, capsys, tmp_path):
        out_path = tmp_path / "red.dot"
        code, _, _ = run(
            capsys,
            "lts",
            fixtures / "inhibition_reduced.bp",
            "--format",
            "dot",
            "--out",
            out_path,
            "--config",
            fixtures / "inhibition.cfg",
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("digraph lts {")
        assert 'label="g; {P:>>(0,1)}"' in text

    def test_malformed_file_exits_2(self, fixtures, capsys):
        code, _, err = run(capsys, "lts", fixtures / "broken.bp")
        assert code == 2
        assert "stoichiometric coefficient" in err
        assert any(line.split(":")[1].isdigit() for line in err.splitlines())

    def test_non_utf8_model_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.bp"
        path.write_bytes(b"\xff\xfe max A = 1;")
        code, _, err = run(capsys, "lts", path)
        assert code == 2
        assert "not UTF-8 text" in err

    def test_state_cap_exits_3(self, fixtures, capsys):
        code, _, err = run(
            capsys, "lts", fixtures / "inhibition_full.bp", "--max-states", "4"
        )
        assert code == 3
        assert "state-space-limit-exceeded(4)" in err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_nonpositive_state_cap_exits_2(self, fixtures, capsys, cap):
        with pytest.raises(SystemExit) as exc:
            main(["lts", str(fixtures / "inhibition_full.bp"), "--max-states", cap])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--max-states: must be a positive integer, got {cap}" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "lts", "no-such-file.bp")
        assert code == 2


class TestCheckCommand:
    def test_fast_slow_equivalent(self, fixtures, capsys):
        code, out, _ = run(
            capsys,
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
        )
        assert code == 0
        assert "verdict: equivalent" in out

    def test_counterexample_exits_1_with_witness(self, fixtures, capsys, tmp_path):
        # compose the burst systems with the context via model files
        a = tmp_path / "a.bp"
        b = tmp_path / "b.bp"
        a.write_text(
            "max S1 = 2;\nmax S = 1;\n"
            "species S1 = (a,2) >> S1 + (g,2) << S1;\n"
            "species S = (a,1) << S;\n"
            "system = S1[0] <*> S[1];\n"
        )
        b.write_text(
            "max S2 = 2;\nmax S = 1;\n"
            "species S2 = (b,2) >> S2 + (g,2) << S2;\n"
            "species S = (a,1) << S;\n"
            "system = S2[0] <*> S[1];\n"
        )
        code, out, _ = run(
            capsys, "check", a, b, "--config", fixtures / "burst.cfg"
        )
        assert code == 1
        assert "verdict: not-equivalent" in out
        assert "no matching weak move" in out
        assert (
            "at pair ((0,1), (0,1)): left state (0,1) offers fast step to (2,0) with no "
            "matching weak move from the right state landing in the relation"
        ) in out.splitlines()

    def test_supplied_relation_ok(self, fixtures, capsys, tmp_path):
        rel_path = tmp_path / "rel.json"
        pairs = [
            [list(a), list(b)] for a, b in inhibition_relation(5, 3, 0)
        ]
        rel_path.write_text(json.dumps(pairs))
        code, out, _ = run(
            capsys,
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
            "--relation",
            rel_path,
        )
        assert code == 0
        assert "verdict: equivalent" in out

    def test_bad_relation_exits_4(self, fixtures, capsys, tmp_path):
        rel_path = tmp_path / "rel.json"
        rel_path.write_text(json.dumps([[[5, 3, 0, 0, 0, 0], [4, 3, 0, 1]]]))
        code, out, _ = run(
            capsys,
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
            "--relation",
            rel_path,
        )
        assert code == 4
        assert "relation-not-a-bisimulation" in out

    def test_shortcut_mode(self, fixtures, capsys, tmp_path):
        rel_path = tmp_path / "rel.json"
        pairs = [
            [list(a), list(b)]
            for a, b in inhibition_relation_transformed(5, 3, 0)
        ]
        rel_path.write_text(json.dumps(pairs))
        code, out, _ = run(
            capsys,
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
            "--relation",
            rel_path,
            "--mode",
            "shortcut",
        )
        assert code == 0
        assert "verdict: equivalent" in out

    def test_shortcut_mode_honours_state_cap(self, fixtures, capsys, tmp_path):
        rel_path = tmp_path / "rel.json"
        pairs = [
            [list(a), list(b)]
            for a, b in inhibition_relation_transformed(5, 3, 0)
        ]
        rel_path.write_text(json.dumps(pairs))
        code, _, err = run(
            capsys,
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
            "--relation",
            rel_path,
            "--mode",
            "shortcut",
            "--max-states",
            "4",
        )
        assert code == 3
        assert "state-space-limit-exceeded(4)" in err

    def test_shortcut_precondition_exits_5(self, fixtures, capsys, tmp_path):
        rel_path = tmp_path / "rel.json"
        rel_path.write_text(json.dumps([[[0, 0, 0], [1]]]))
        code, _, err = run(
            capsys,
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
            "--relation",
            rel_path,
            "--mode",
            "shortcut",
        )
        assert code == 5
        assert "slow coordinates" in err

    def test_emit_relation_round_trips(self, fixtures, capsys, tmp_path):
        rel_path = tmp_path / "largest.json"
        code, _, _ = run(
            capsys,
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
            "--emit-relation",
            rel_path,
        )
        assert code == 0
        emitted = json.loads(rel_path.read_text())
        code2, out2, _ = run(
            capsys,
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
            "--relation",
            rel_path,
        )
        assert code2 == 0 and emitted

    def test_json_deterministic(self, fixtures, capsys):
        args = (
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
            "--json",
            "--deterministic",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["verdict"] == "equivalent"
        assert "timing_ms" not in report
        assert len(report["inputs"]) == 3


class TestClassifyCommand:
    def test_full_model(self, fixtures, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            fixtures / "inhibition_full.bp",
            "--config",
            fixtures / "inhibition.cfg",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)["classification"]
        assert [e["name"] for e in doc["conserved"]] == ["S+P+SE", "E+EI+SE", "I+EI"]
        assert [e["name"] for e in doc["slow"]] == ["P"]
        assert [e["name"] for e in doc["fast"]] == ["EI", "SE"]

    def test_reduced_model(self, fixtures, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
        )
        assert code == 0
        assert "slow: P'" in out
        assert "fast: (none)" in out

    def test_all_fast_exits_5(self, capsys, tmp_path):
        model = tmp_path / "flip.bp"
        model.write_text(
            "max A = 2;\nspecies A = (x,1) << A + (y,1) >> A;\nsystem = A[2];\n"
        )
        cfg = tmp_path / "flip.cfg"
        cfg.write_text("fast: x, y\n")
        code, _, err = run(capsys, "classify", model, "--config", cfg)
        assert code == 5
        assert "cannot be used" in err


class TestCongruenceCommand:
    def test_producer_instance_exits_0(self, fixtures, capsys):
        code, out, _ = run(
            capsys,
            "congruence",
            fixtures / "producer_plain.bp",
            fixtures / "producer_activated.bp",
            fixtures / "consumer_ctx.bp",
            "--config",
            fixtures / "producer.cfg",
        )
        assert code == 0
        assert "side condition holds: True" in out
        assert "composed verdict: equivalent" in out

    def test_burst_counterexample_exits_1(self, fixtures, capsys):
        code, out, _ = run(
            capsys,
            "congruence",
            fixtures / "burst_a.bp",
            fixtures / "burst_b.bp",
            fixtures / "drain_ctx.bp",
            "--config",
            fixtures / "burst.cfg",
        )
        assert code == 1
        assert "shared fast actions with context: a" in out
        assert "composed verdict: not-equivalent" in out

    def test_state_cap_exits_3(self, fixtures, capsys):
        code, _, err = run(
            capsys,
            "congruence",
            fixtures / "burst_a.bp",
            fixtures / "burst_b.bp",
            fixtures / "drain_ctx.bp",
            "--config",
            fixtures / "burst.cfg",
            "--max-states",
            "2",
        )
        assert code == 3
        assert "state-space-limit-exceeded(2)" in err


class TestExtendCommand:
    def test_prints_extended_species(self, capsys, tmp_path):
        model = tmp_path / "two.bp"
        model.write_text(
            "max A = 3;\nmax B = 3;\n"
            "species A = (up,1) >> A;\n"
            "species B = (down,1) << B;\n"
            "system = A[0] <*> B[3];\n"
        )
        code, out, _ = run(capsys, "extend", model, "A", "B")
        assert code == 0
        assert "species A{B} = (up,1) >> A{B} + (down,1) << A{B};" in out
        assert "max A{B} = 3;" in out

    def test_unknown_species_exits_2(self, capsys, tmp_path):
        model = tmp_path / "one.bp"
        model.write_text("max A = 3;\nspecies A = (up,1) >> A;\nsystem = A[0];\n")
        code, _, err = run(capsys, "extend", model, "A", "Z")
        assert code == 2

    def test_overlapping_actions_exit_2(self, fixtures, capsys):
        code, _, err = run(
            capsys, "extend", fixtures / "producer_plain.bp", "C1", "C1"
        )
        assert code == 2
        assert "overlapping-actions(a)" in err
