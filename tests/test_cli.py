from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import fastslow
from fastslow.cli import main
from systems import inhibition_relation, inhibition_relation_transformed

ONE_SPECIES = "max A = 2;\nspecies A = (r,1) << A;\n"
DEEP_PARENTHESES = ONE_SPECIES + "system = " + "(" * 3000 + "A[1]" + ")" * 3000 + ";\n"
LONG_LITERAL = "9" * 4301  # one digit beyond the interpreter's default conversion limit


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_under_c_locale(tmp_path, *argv) -> subprocess.CompletedProcess:
    """Run ``python -m fastslow.cli`` in ``tmp_path`` under the C locale,
    on a one-species model ``u.bp`` whose species is named \u00c9 and its
    configuration ``u.cfg``."""
    (tmp_path / "u.bp").write_text(
        "max \u00c9 = 2;\nspecies \u00c9 = (r,1) >> \u00c9;\nsystem = \u00c9[0];\n",
        encoding="utf-8",
    )
    (tmp_path / "u.cfg").write_text("slow: r\ndelta: \u00c9\n", encoding="utf-8")
    env = dict(
        os.environ,
        LC_ALL="C",
        PYTHONUTF8="0",
        PYTHONCOERCECLOCALE="0",
        PYTHONPATH=str(Path(fastslow.__file__).parents[1]),
    )
    return subprocess.run(
        [sys.executable, "-m", "fastslow.cli", *argv], cwd=tmp_path, env=env, capture_output=True
    )


def check_relation(fixtures, capsys, tmp_path, text, *extra):
    rel_path = tmp_path / "rel.json"
    rel_path.write_text(text)
    return run(
        capsys,
        "check",
        fixtures / "inhibition_full.bp",
        fixtures / "inhibition_reduced.bp",
        "--config",
        fixtures / "inhibition.cfg",
        "--relation",
        rel_path,
        *extra,
    )


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

    def test_deep_parentheses_parse(self, capsys, tmp_path):
        deep, flat = tmp_path / "deep.bp", tmp_path / "flat.bp"
        deep.write_text(DEEP_PARENTHESES)
        flat.write_text(ONE_SPECIES + "system = A[1];\n")
        code, out, _ = run(capsys, "lts", deep)
        assert code == 0
        _, flat_out, _ = run(capsys, "lts", flat)
        assert json.loads(out)["states"] == json.loads(flat_out)["states"]

    def test_non_ascii_digit_exits_2(self, capsys, tmp_path):
        path = tmp_path / "sup.bp"
        path.write_text("max S = \u00b2;\nspecies S = (r,1) << S;\nsystem = S[1];\n")
        code, _, err = run(capsys, "lts", path)
        assert code == 2
        assert "1:9: unexpected character '\u00b2'" in err

    def test_overlong_integer_literal_exits_2(self, capsys, tmp_path):
        path = tmp_path / "long.bp"
        path.write_text(f"max A = {LONG_LITERAL};\nspecies A = (r,1) << A;\nsystem = A[1];\n")
        code, _, err = run(capsys, "lts", path)
        assert code == 2
        assert "maximum count has too many digits (4301)" in err

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

    def test_out_file_is_utf8_under_the_c_locale(self, tmp_path):
        done = run_under_c_locale(
            tmp_path, "lts", "u.bp", "--format", "dot", "--config", "u.cfg", "--out", "u.dot"
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, b"3 states, 2 transitions\n", b"")
        dot = (tmp_path / "u.dot").read_text(encoding="utf-8")
        assert 'label="r; {\u00c9:>>(0,1)}"' in dot

    def test_stdout_is_utf8_under_the_c_locale(self, tmp_path):
        done = run_under_c_locale(tmp_path, "lts", "u.bp", "--format", "dot", "--config", "u.cfg")
        assert (done.returncode, done.stderr) == (0, b"3 states, 2 transitions\n")
        assert 'label="r; {\u00c9:>>(0,1)}"'.encode() in done.stdout
        # a witness that names the species: the relation pairs level 0 with 1
        (tmp_path / "r.json").write_text("[[[0], [1]]]\n")
        done = run_under_c_locale(tmp_path, "check", "u.bp", "u.bp", "--config", "u.cfg", "--relation", "r.json")
        assert (done.returncode, done.stderr) == (4, b"")
        assert done.stdout.decode("utf-8").splitlines() == [
            "verdict: relation-not-a-bisimulation",
            "at pair ((0), (1)): left state (0) offers slow step (r, {\u00c9:>>(0,1)}) to (1) "
            "with no matching weak move from the right state landing in the relation",
        ]

    def test_unwritable_out_exits_2(self, fixtures, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "lts", fixtures / "inhibition_full.bp", "--out", out_path)
        assert (code, out) == (2, "")
        assert err == f"{out_path}: No such file or directory\n"
        assert "Traceback" not in err


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

    # the terminal pair, product level 5: a bisimulation without the initial pair
    @pytest.mark.parametrize(
        "mode, pair",
        [
            ("fast-slow", [[0, 3, 0, 5, 0, 0], [0, 3, 0, 5]]),
            ("slow", [[0, 3, 0, 5, 0, 0], [0, 3, 0, 5]]),
            ("shortcut", [[5, 0, 0], [5]]),
        ],
    )
    def test_valid_relation_without_initial_pair_exits_1(
        self, fixtures, capsys, tmp_path, mode, pair
    ):
        verdict = "relation-valid-but-initial-states-unrelated"
        text = json.dumps([pair])
        code, out, err = check_relation(fixtures, capsys, tmp_path, text, "--mode", mode)
        assert (code, out, err) == (1, f"verdict: {verdict}\n", "")
        code, out, _ = check_relation(
            fixtures, capsys, tmp_path, text, "--mode", mode, "--json", "--deterministic"
        )
        report = json.loads(out)
        assert code == 1
        assert (report["verdict"], report["witness"]) == (verdict, None)
        if mode == "shortcut":
            assert report["slowVerdict"] == "equivalent"
            assert report["fastSlowVerdict"] == verdict
        else:
            # the ordinary check report
            assert report["states"] == {"left": 18, "right": 6}
            assert report["relationSize"] == 1

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

    def test_overlong_integer_in_relation_exits_2(self, fixtures, capsys, tmp_path):
        code, _, err = check_relation(
            fixtures, capsys, tmp_path, f"[[[{LONG_LITERAL}], [1]]]"
        )
        assert code == 2
        assert "rel.json: Exceeds the limit" in err

    @pytest.mark.parametrize(
        "mode, message",
        [
            ("fast-slow", "rel.json: first-model vector [inf] is not an integer array"),
            ("shortcut", "rel.json: first-model vector [inf] is not an integer array"),
        ],
        ids=["fast-slow", "shortcut"],
    )
    def test_infinite_relation_entry_exits_2(self, fixtures, capsys, tmp_path, mode, message):
        code, _, err = check_relation(
            fixtures, capsys, tmp_path, "[[[1e400], [1]]]", "--mode", mode
        )
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("mode", ["fast-slow", "shortcut"])
    @pytest.mark.parametrize(
        "relation, message",
        [
            # once coerced to the state (5,3,0,0,0,0)
            ("[[[5.9,3,0,0,0,0],[5,3,0,0]]]", "first-model vector [5.9, 3, 0, 0, 0, 0]"),
            # once read digit by digit as (5,3)
            ('[["53",[5,3,0,0]]]', "first-model vector '53'"),
            # once read as 1
            ("[[[5,3,0,0,0,0],[5,3,0,true]]]", "second-model vector [5, 3, 0, True]"),
            # once a TypeError traceback
            ("[[5,[5,3,0,0]]]", "first-model vector 5"),
            ("[[true,[5,3,0,0]]]", "first-model vector True"),
        ],
        ids=["fraction", "string", "boolean-entry", "scalar", "boolean-scalar"],
    )
    def test_non_integer_vector_exits_2(
        self, fixtures, capsys, tmp_path, relation, message, mode
    ):
        code, out, err = check_relation(
            fixtures, capsys, tmp_path, relation, "--mode", mode
        )
        assert code == 2
        assert out == ""
        assert err == f"{tmp_path / 'rel.json'}: {message} is not an integer array\n"

    @pytest.mark.parametrize("mode", ["fast-slow", "slow", "shortcut"])
    def test_unknown_delta_species_exits_2(self, fixtures, capsys, tmp_path, mode):
        cfg = tmp_path / "delta.cfg"
        text = (fixtures / "inhibition.cfg").read_text()
        cfg.write_text(text.replace("delta: P\n", "delta: P, Q\n"))
        rel_path = tmp_path / "rel.json"
        pairs = [
            [list(a), list(b)]
            for a, b in inhibition_relation_transformed(5, 3, 0)
        ]
        rel_path.write_text(json.dumps(pairs))
        relation = ["--relation", rel_path] if mode == "shortcut" else []
        code, out, err = run(
            capsys,
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            cfg,
            "--mode",
            mode,
            *relation,
        )
        assert code == 2
        assert out == ""
        assert err == "unknown-species-in-delta(Q)\n"

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

    def test_unwritable_emit_relation_exits_2(self, fixtures, capsys, tmp_path):
        rel_path = tmp_path / "missing" / "r.json"
        code, out, err = run(
            capsys,
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
            "--emit-relation",
            rel_path,
        )
        assert (code, out) == (2, "")
        assert err == f"{rel_path}: No such file or directory\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "model, mode, supplied",
        [
            ("inhibition_full.bp", "fast-slow", True),
            ("inhibition_full.bp", "slow", True),
            ("inhibition_full.bp", "shortcut", True),
            ("inhibition_full.bp", "shortcut", False),
            ("missing.bp", "fast-slow", True),
        ],
    )
    def test_emit_relation_where_none_is_computed_exits_2(
        self, fixtures, capsys, tmp_path, model, mode, supplied
    ):
        # only a computed largest relation can be emitted; the refusal
        # comes before any model is read, so a missing one goes unnoticed
        rel_path, out_path = tmp_path / "rel.json", tmp_path / "out.json"
        pairs = [[list(a), list(b)] for a, b in inhibition_relation(5, 3, 0)]
        rel_path.write_text(json.dumps(pairs))
        code, out, err = run(
            capsys,
            "check",
            fixtures / model,
            fixtures / "inhibition_reduced.bp",
            "--config",
            fixtures / "inhibition.cfg",
            *(["--relation", rel_path] if supplied else []),
            "--mode",
            mode,
            "--emit-relation",
            out_path,
        )
        assert (code, out) == (2, "")
        assert err == "--emit-relation cannot be combined with --relation or --mode shortcut\n"
        assert not out_path.exists()

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

    def test_delta_may_name_the_other_models_species(self, fixtures, capsys, tmp_path):
        # S' is a species of the reduced model only: a check of the two
        # models accepts this configuration (S' has no counterpart, so
        # the verdict is "not equivalent"), and classify must accept it too
        cfg = inhibition_config(fixtures, tmp_path, "delta: P\n", "delta: P, S'\n")
        full = fixtures / "inhibition_full.bp"
        reduced = fixtures / "inhibition_reduced.bp"
        code, out, _ = run(capsys, "check", full, reduced, "--config", cfg)
        assert code == 1
        assert "verdict: not-equivalent" in out
        code, out, _ = run(capsys, "classify", full, "--config", cfg)
        assert code == 0
        plain = run(capsys, "classify", full, "--config", fixtures / "inhibition.cfg")
        assert out == plain[1]

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

    def test_unknown_delta_species_exits_2(self, fixtures, capsys, tmp_path):
        cfg = tmp_path / "delta.cfg"
        cfg.write_text((fixtures / "burst.cfg").read_text() + "delta: Nope\n")
        code, out, err = run(
            capsys,
            "congruence",
            fixtures / "burst_a.bp",
            fixtures / "burst_b.bp",
            fixtures / "drain_ctx.bp",
            "--config",
            cfg,
        )
        assert code == 2
        assert out == ""
        assert err == "unknown-species-in-delta(Nope)\n"

    def test_delta_may_name_context_species(self, fixtures, capsys, tmp_path):
        # the compositions with the context hold its species S
        cfg = tmp_path / "delta.cfg"
        cfg.write_text((fixtures / "burst.cfg").read_text() + "delta: S\n")
        code, out, _ = run(
            capsys,
            "congruence",
            fixtures / "burst_a.bp",
            fixtures / "burst_b.bp",
            fixtures / "drain_ctx.bp",
            "--config",
            cfg,
        )
        assert code == 1
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


def inhibition_config(fixtures, tmp_path, old: str, new: str) -> Path:
    """The inhibition configuration with ``old`` replaced by ``new``."""
    cfg = tmp_path / "edited.cfg"
    text = (fixtures / "inhibition.cfg").read_text()
    assert old in text
    cfg.write_text(text.replace(old, new))
    return cfg


WITHOUT_A1 = ("fast: a1, am1", "fast: am1")  # a1 needs EI, which needs I, at 0


class TestInputsCheckedBeforeBuilding:
    """Every input is read and checked before any transition system is
    built, so a state cap of one changes neither the exit code nor the
    message of an input error."""

    @staticmethod
    def refused(capsys, *argv) -> str:
        uncapped = run(capsys, *argv)
        capped = run(capsys, *argv, "--max-states", "1")
        assert capped == uncapped
        code, out, err = capped
        assert code == 2
        assert out == ""
        return err

    @staticmethod
    def check(fixtures, tmp_path, cfg, mode, relation=None):
        """``check`` of the inhibition fixtures; shortcut mode gets the
        transformed relation unless another one is given."""
        if relation is None and mode == "shortcut":
            relation = tmp_path / "transformed.json"
            pairs = inhibition_relation_transformed(5, 3, 0)
            relation.write_text(json.dumps([[list(a), list(b)] for a, b in pairs]))
        argv = [
            "check",
            fixtures / "inhibition_full.bp",
            fixtures / "inhibition_reduced.bp",
            "--config",
            cfg,
            "--mode",
            mode,
        ]
        return argv + (["--relation", relation] if relation else [])

    @staticmethod
    def congruence(cfg, *models):
        return ["congruence", *models, "--config", cfg]

    @pytest.mark.parametrize("mode", ["fast-slow", "slow", "shortcut"])
    def test_unknown_delta_species(self, fixtures, capsys, tmp_path, mode):
        cfg = inhibition_config(fixtures, tmp_path, "delta: P\n", "delta: P, Q\n")
        err = self.refused(capsys, *self.check(fixtures, tmp_path, cfg, mode))
        assert err == "unknown-species-in-delta(Q)\n"

    @pytest.mark.parametrize("mode", ["fast-slow", "slow", "shortcut"])
    def test_malformed_relation(self, fixtures, capsys, tmp_path, mode):
        rel = tmp_path / "rel.json"
        rel.write_text("[[[5.9,3,0,0,0,0],[5,3,0,0]]]")
        cfg = fixtures / "inhibition.cfg"
        err = self.refused(capsys, *self.check(fixtures, tmp_path, cfg, mode, rel))
        vector = "[5.9, 3, 0, 0, 0, 0]"
        assert err == f"{rel}: first-model vector {vector} is not an integer array\n"

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([[[5, 0], [5]]], "coordinate pair ((5, 0), (5,)) has the wrong arities"),
            ([[[5, 0, 0], [4]]], "slow coordinates must be equal within each pair: (5,) vs (4,)"),
        ],
        ids=["arity", "slow-values"],
    )
    def test_shortcut_relation_shape(self, fixtures, capsys, tmp_path, pairs, message):
        # a shortcut precondition, so exit code 5 rather than 2
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps(pairs))
        argv = self.check(fixtures, tmp_path, fixtures / "inhibition.cfg", "shortcut", rel)
        uncapped = run(capsys, *argv)
        assert run(capsys, *argv, "--max-states", "1") == uncapped == (5, "", message + "\n")

    def test_congruence_unpartitioned_action(self, fixtures, capsys, tmp_path):
        cfg = tmp_path / "ab.cfg"
        cfg.write_text("fast: a\nslow: g\n")
        models = (fixtures / m for m in ("burst_a.bp", "burst_b.bp", "drain_ctx.bp"))
        err = self.refused(capsys, *self.congruence(cfg, *models))
        assert err == "unpartitioned-action(b)\n"

    def test_congruence_composition_clash(self, fixtures, capsys):
        cfg = fixtures / "burst.cfg"
        models = (fixtures / m for m in ("burst_a.bp", "burst_b.bp", "burst_a.bp"))
        err = self.refused(capsys, *self.congruence(cfg, *models))
        assert err == "repeated-species(S1); repeated-species(S1)\n"

    @pytest.mark.parametrize("mode", ["fast-slow", "slow", "shortcut"])
    def test_check_declared_reaction_that_never_fires(
        self, fixtures, capsys, tmp_path, mode
    ):
        cfg = inhibition_config(fixtures, tmp_path, *WITHOUT_A1)
        err = self.refused(capsys, *self.check(fixtures, tmp_path, cfg, mode))
        assert err == "unpartitioned-action(a1)\n"

    def test_congruence_declared_reaction_that_never_fires(
        self, fixtures, capsys, tmp_path
    ):
        cfg = inhibition_config(fixtures, tmp_path, *WITHOUT_A1)
        context = tmp_path / "ctx.bp"
        context.write_text("max Z = 1;\nspecies Z = (g,1) (.) Z;\nsystem = Z[1];\n")
        full, reduced = fixtures / "inhibition_full.bp", fixtures / "inhibition_reduced.bp"
        err = self.refused(capsys, *self.congruence(cfg, full, reduced, context))
        assert err == "unpartitioned-action(a1)\n"

    def test_classify_declared_reaction_that_never_fires(
        self, fixtures, capsys, tmp_path
    ):
        cfg = inhibition_config(fixtures, tmp_path, *WITHOUT_A1)
        full = fixtures / "inhibition_full.bp"
        result = run(capsys, "classify", full, "--config", cfg)
        assert result == (2, "", "unpartitioned-action(a1)\n")


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


MODEL_BASE = (
    "step = 1;\nmax S = 2;\nmax E = 1;\nmax P = 2;\n"
    "species S = (r,1) << S + (s,1) >> S;\n"
    "species E = (r,1) (+) E + (s,1) (.) E;\n"
    "species P = (p,1) >> P;\n"
    'rate r = "k * S";\nparam k = "1";\n'
    "system = S[1] <*> E[1] <*> P[0];\n"
)
CONFIG_BASE = "fast: r\nslow: s, p\ndelta: P\nalias: P' = P\n"
RELATION_BASE = "[[[1, 1, 0], [1, 1, 0]], [[0, 1, 0], [0, 1, 1]]]"
CONTEXT = "max Q = 1;\nspecies Q = (p,1) (+) Q;\nsystem = Q[1];\n"
HOSTILE = (
    "\u00b2", "\u0663", "\uff11", "9" * 4400, "1e400", "-1e400", "NaN",
    "(" * 3000, ")" * 3000, "[" * 3000, "]]", "\x00", "\u00e9",
)
MODEL_PIECES = HOSTILE + (
    "step", "max", "species", "system", "param", "rate", "S", "E", "r", "s",
    "=", ";", "<<", ">>", "(+)", "(-)", "(.)", "+", "<*>", "<", ">", "<>",
    ",", "(", ")", "[", "]", "0", "1", "2", '"k"', "S[1]", " ", "\n", "//",
)
CONFIG_PIECES = HOSTILE + (
    "fast:", "slow:", "delta:", "alias:", "r", "s", "S", "E", "S'", "=", ",", " ", "\n",
)
RELATION_PIECES = HOSTILE + ("[", "]", ",", "0", "1", "-1", "1.5", '"a"', "{}", "null", " ")
BAD_BYTES = (b"",) * 9 + (b"\xff", b"\xc3(", b"\xed\xa0\x80")

# {m} model, {c} configuration, {r} relation, {q} a fixed context model
COMMANDS = (
    ("lts", "{m}", "--max-states", "40"),
    ("lts", "{m}", "--format", "dot", "--config", "{c}", "--max-states", "40"),
    ("check", "{m}", "{m}", "--config", "{c}", "--max-states", "40"),
    ("check", "{m}", "{m}", "--config", "{c}", "--mode", "slow", "--max-states", "40"),
    ("check", "{m}", "{m}", "--config", "{c}", "--relation", "{r}", "--max-states", "40"),
    ("check", "{m}", "{m}", "--config", "{c}", "--relation", "{r}", "--mode", "shortcut", "--max-states", "40"),
    ("classify", "{m}", "--config", "{c}", "--json"),
    ("congruence", "{m}", "{m}", "{q}", "--config", "{c}", "--max-states", "40"),
    ("extend", "{m}", "S", "P"),
)


def hostile_text(base: str, pieces: tuple[str, ...]):
    """Soup of the language's tokens, or the base text with pieces
    spliced in; either may gain bytes that are not UTF-8."""
    soup = st.lists(st.sampled_from(pieces), max_size=30).map("".join)
    spliced = st.lists(
        st.tuples(st.integers(0, len(base)), st.sampled_from(pieces)), max_size=3
    ).map(lambda edits: _splice(base, edits))
    return st.builds(
        lambda text, tail: text.encode() + tail,
        st.one_of(soup, spliced, st.just(base)),
        st.sampled_from(BAD_BYTES),
    )


def _splice(base: str, edits) -> str:
    for at, piece in sorted(edits, reverse=True):
        base = base[:at] + piece + base[at:]
    return base


class TestCliFuzz:
    """Whatever the input files hold, the CLI answers with an exit code
    and a message, never with an uncaught exception."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        command=st.sampled_from(COMMANDS),
        model=hostile_text(MODEL_BASE, MODEL_PIECES),
        config=hostile_text(CONFIG_BASE, CONFIG_PIECES),
        relation=hostile_text(RELATION_BASE, RELATION_PIECES),
    )
    @example(COMMANDS[0], DEEP_PARENTHESES.encode(), b"", b"")
    @example(COMMANDS[0], "max S = \u00b2;".encode(), b"", b"")
    @example(COMMANDS[0], f"max A = {LONG_LITERAL};".encode(), b"", b"")
    @example(COMMANDS[4], MODEL_BASE.encode(), CONFIG_BASE.encode(), f"[[[{LONG_LITERAL}]]]".encode())
    @example(COMMANDS[4], MODEL_BASE.encode(), CONFIG_BASE.encode(), b"[[[1e400], [1]]]")
    @example(COMMANDS[5], MODEL_BASE.encode(), CONFIG_BASE.encode(), b"[[[1e400], [1]]]")
    @example(COMMANDS[4], MODEL_BASE.encode(), CONFIG_BASE.encode(), b"[[5, [1, 1, 0]]]")
    @example(COMMANDS[4], MODEL_BASE.encode(), CONFIG_BASE.encode(), b"[[true, [1, 1, 0]]]")
    def test_exit_code_without_traceback(self, command, model, config, relation):
        inputs = {"m": model, "c": config, "r": relation, "q": CONTEXT.encode()}
        with tempfile.TemporaryDirectory() as tmp:
            paths = {key: Path(tmp) / key for key in inputs}
            for key, data in inputs.items():
                paths[key].write_bytes(data)
            argv = [arg.format(**paths) for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in range(6)
        assert "Traceback" not in out.getvalue() + err.getvalue()
