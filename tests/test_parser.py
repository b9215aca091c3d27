from __future__ import annotations

import copy
import pickle

import pytest

from fastslow import (
    EquivConfig,
    Leaf,
    Node,
    ParseError,
    Prefix,
    Role,
    SpeciesDef,
    SystemDef,
    parse_config,
    parse_model,
    render_config,
    render_model,
)
from fastslow.parser import _lex, _located
from oracles import lex_oracle
from randgen import random_system
from systems import inhibition_full, right_nested_chain

import random


def spans_of(parse, text: str) -> list[tuple[str, int, int, int, int]]:
    """Each diagnostic as (message, line, column, start, end)."""
    with pytest.raises(ParseError) as err:
        parse(text)
    return [
        (d.message, d.span.line, d.span.column, d.span.start, d.span.end)
        for d in err.value.diagnostics
    ]


def diagnostics_of(text: str) -> list[str]:
    with pytest.raises(ParseError) as err:
        parse_model(text)
    return [str(d) for d in err.value.diagnostics]


class TestParseModel:
    def test_inhibition_fixture(self, fixtures):
        parsed = parse_model((fixtures / "inhibition_full.bp").read_text())
        assert parsed.species == inhibition_full().species
        assert parsed.species_order == ("S", "E", "I", "P", "EI", "SE")
        assert parsed.tree == inhibition_full().tree
        enzyme = parsed.species_def("E")
        assert [p.action for p in enzyme.prefixes] == ["a1", "am1", "b1", "bm1", "g"]
        assert parsed.rates["g"] == "k_g * SE"
        assert parsed.params == {"k_g": "0.1"}

    def test_missing_system_line(self):
        report = diagnostics_of("max S = 5;\nspecies S = (a,1) << S;\n")
        assert any("missing system declaration" in d for d in report)

    def test_zero_stoichiometry(self):
        report = diagnostics_of(
            "max S = 5;\nspecies S = (a,0) << S;\nsystem = S[0];\n"
        )
        assert any("stoichiometric coefficient" in d for d in report)

    def test_continuation_must_match(self):
        report = diagnostics_of(
            "max S = 5;\nmax T = 5;\nspecies S = (a,1) << T;\nsystem = S[0];\n"
        )
        assert any("must return to itself" in d for d in report)

    def test_missing_max(self):
        report = diagnostics_of("species S = (a,1) << S;\nsystem = S[0];\n")
        assert any("missing max declaration" in d for d in report)

    def test_level_out_of_range_forwarded(self):
        report = diagnostics_of(
            "max S = 5;\nspecies S = (a,1) << S;\nsystem = S[9];\n"
        )
        assert any("level-out-of-range(S)" in d for d in report)

    def test_multiple_diagnostics_collected(self):
        report = diagnostics_of(
            "max S = 5;\nspecies S = (a,0) << S;\nspecies S = (b,1) << S;\n"
        )
        assert len(report) >= 2

    def test_explicit_coop_sets(self):
        parsed = parse_model(
            "max A = 2;\nmax B = 2;\nmax C = 2;\n"
            "species A = (x,1) << A;\n"
            "species B = (x,1) >> B + (y,1) << B;\n"
            "species C = (y,1) >> C;\n"
            "system = (A[1] <x> B[0]) <y> C[0];\n"
        )
        root = parsed.tree
        assert isinstance(root, Node) and root.coop == frozenset({"y"})
        assert isinstance(root.left, Node) and root.left.coop == frozenset({"x"})

    def test_spans_inside_text(self):
        text = "max S = 5;\nspecies S = (a,0) << S;\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        for d in err.value.diagnostics:
            assert 0 <= d.span.start <= d.span.end <= len(text)
            assert d.span.line >= 1 and d.span.column >= 1

    def test_problem_spans(self):
        # a problem points at the declared species it is about, or else at
        # the system line: a cooperation action named like a species is
        # still a problem of the system line
        text = (
            "max A = 2;\nmax B = 2;\n"
            "species A = (B,1) << A;\n"
            "species B = (r,1) >> B;\n"
            "system = A[3] <B,x> B[0] <*> Q[1];\n"
        )
        assert spans_of(parse_model, text) == [
            ("level-out-of-range(A): initial 3 not in 0..2", 3, 9, 30, 31),
            ("unknown-species(Q)", 5, 1, 70, 76),
            ("dangling-coop-action(B)", 5, 1, 70, 76),
            ("dangling-coop-action(x)", 5, 1, 70, 76),
        ]

    def test_species_problem_points_at_its_species(self):
        # the message names action a in parentheses, species S after it
        text = "max S = 2;\nspecies S = (a,1) << S + (a,1) >> S;\nsystem = S[1];\n"
        assert spans_of(parse_model, text) == [
            ("duplicate-action(a) in species S", 2, 9, 19, 20),
        ]

    def test_dangling_action_named_like_a_species_points_at_system(self):
        text = (
            "max S = 2;\nmax q = 2;\n"
            "species S = (a,1) << S;\n"
            "species q = (q,1) >> q;\n"
            "system = S[1] <q> q[0];\n"
        )
        assert spans_of(parse_model, text) == [
            ("dangling-coop-action(q)", 5, 1, 70, 76),
        ]

    def test_comments_and_primes(self):
        parsed = parse_model(
            "// a comment\nmax S' = 2; // trailing\nspecies S' = (a,1) << S';\nsystem = S'[1];\n"
        )
        assert parsed.species_order == ("S'",)


# single characters and spellings that stress the lexer's rules: line
# ends, comments, quotes, characters that str.isalpha rejects but a
# regular expression's word class takes, NUL, and every symbol
_LEX_PIECES = (
    "\r", "\r\n", "\n", "//", "/", '"', " ", "\t", "\u00b2", "\u00bd", "\u216b",
    "\u0663", "\x00", "_", "'", "7", "x", "\u00df", "<*>", "(+)", "(-)", "(.)",
    "<<", ">>", ";", "=", "+", "(", ")", ",", "[", "]", "<", ">",
)


def _mutated(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(text))
        choice = rng.random()
        if choice < 0.6:
            text = text[:at] + rng.choice(_LEX_PIECES) + text[at:]
        elif choice < 0.8:
            text = text[:at] + text[at + rng.randint(1, 8) :]
        else:
            text = text[:at] + text[at : at + rng.randint(1, 8)] + text[at:]
    return text


def _lexed(lex, text: str) -> list[tuple]:
    """Each token as (kind, text, line, column, start, end), or else each
    diagnostic as (message, line, column, start, end)."""
    try:
        tokens = lex(text)
    except ParseError as err:
        return [(d.message, *d.span) for d in err.diagnostics]
    if lex is lex_oracle:
        return [(kind, tok, *span) for kind, tok, span in tokens]
    located = _located(text, [(t.start, t.end, "") for t in tokens])
    return [(t.kind, t.text, *d.span) for t, d in zip(tokens, located.diagnostics)]


class TestLexAgainstOracle:
    def test_mutated_texts(self, fixtures):
        bases = [p.read_text() for p in sorted(fixtures.iterdir())]
        bases += [
            render_model(random_system(random.Random(f"lex-base:{case}")))
            for case in range(40)
        ]
        rng = random.Random("lex-oracle")
        failures = 0
        for case in range(2400):
            text = _mutated(rng, bases[case % len(bases)])
            expected = _lexed(lex_oracle, text)
            assert _lexed(_lex, text) == expected, repr(text)
            failures += expected[-1][0] != "eof"
        assert 0 < failures < 2400  # both outcomes are exercised


class TestRender:
    def test_fixture_round_trip(self, fixtures):
        source = (fixtures / "inhibition_full.bp").read_text()
        parsed = parse_model(source)
        text = render_model(parsed)
        assert parse_model(text) == parsed
        # idempotent normalisation
        assert render_model(parse_model(text)) == text

    def test_all_roles_render(self):
        sys = parse_model(
            "max S = 3;\nmax T = 3;\n"
            "species S = (a,1) << S + (b,1) >> S + (c,1) (+) S + (d,1) (-) S + (e,1) (.) S;\n"
            "species T = (a,1) >> T + (b,1) << T + (c,2) (.) T + (d,1) (+) T + (e,1) (-) T;\n"
            "system = S[1] <a,b> T[2];\n"
        )
        text = render_model(sys)
        for op in ("<<", ">>", "(+)", "(-)", "(.)"):
            assert op in text
        assert parse_model(text) == sys

    def test_empty_coop_set_round_trips(self):
        a = SpeciesDef("A", (Prefix("x", 1, Role.PRODUCT),), 2)
        b = SpeciesDef("B", (Prefix("x", 1, Role.REACTANT),), 2)
        sys = SystemDef((a, b), Node(Leaf("A", 0), frozenset(), Leaf("B", 1)))
        assert parse_model(render_model(sys)) == sys

    def test_random_round_trips(self):
        for case in range(150):
            sys = random_system(random.Random(f"roundtrip:{case}"))
            text = render_model(sys)
            again = parse_model(text)
            assert again == sys, text
            assert render_model(again) == text

    def test_deep_right_nested_chain_round_trips(self):
        text = render_model(right_nested_chain(3000))
        assert text.endswith("S2998[0] <*> S2999[0]" + ")" * 2998 + ";\n")
        assert render_model(parse_model(text)) == text

    def test_deep_right_nested_chain_compares_and_hashes(self):
        sys = right_nested_chain(3000)
        text = render_model(sys)
        parsed = parse_model(text)
        assert parsed == parse_model(text) == sys
        assert hash(parsed.tree) == hash(parse_model(text).tree) == hash(sys.tree)
        # the deepest leaf starts one level higher
        changed = parse_model(text.replace("S2999[0]", "S2999[1]"))
        assert changed != parsed
        assert changed.tree != sys.tree

    def test_deep_right_nested_chain_prints_copies_and_pickles(self):
        sys = right_nested_chain(3000)
        shown = repr(sys.tree)
        assert shown.startswith("Node(left=Leaf(species='S0', level=0), coop=None, right=Node(")
        assert shown.endswith("right=Leaf(species='S2999', level=0)" + ")" * 2999)
        assert repr(sys).count("Node(") == 2999
        assert copy.deepcopy(sys) == sys
        assert pickle.loads(pickle.dumps(sys)) == sys
        assert pickle.loads(pickle.dumps(sys.tree)).right.right.left == Leaf("S2", 0)

    def test_unrenderable_context_rejected(self):
        sys = parse_model('max S = 2;\nspecies S = (a,1) << S;\nsystem = S[1];\n')
        from dataclasses import replace

        with pytest.raises(ValueError):
            render_model(replace(sys, params={"k": 'has "quotes"'}))


class TestParseConfig:
    def test_inhibition_config(self, fixtures):
        cfg = parse_config((fixtures / "inhibition.cfg").read_text())
        assert cfg.fast == frozenset({"a1", "am1", "b1", "bm1"})
        assert cfg.slow == frozenset({"g"})
        assert cfg.delta == frozenset({"P"})
        assert cfg.aliases == {"P'": "P"}

    def test_action_in_both_classes(self):
        with pytest.raises(ParseError) as err:
            parse_config("fast: g\nslow: g\n")
        assert any("action-in-both-classes(g)" in str(d) for d in err.value.diagnostics)
        # after the per-line problems, sorted by action, each at the first
        # line that lists the action in its second class
        assert spans_of(parse_config, "fast: g, a\nslow: g\nspeed: x\nslow: a, g\n") == [
            ("unrecognised configuration line: 'speed: x'", 3, 1, 19, 27),
            ("action-in-both-classes(a)", 4, 1, 28, 38),
            ("action-in-both-classes(g)", 2, 1, 11, 18),
        ]
        assert spans_of(parse_config, "slow: x\n\nfast: a, g\nslow: g\n") == [
            ("action-in-both-classes(g)", 4, 1, 20, 27),
        ]

    def test_empty_delta_is_valid(self):
        cfg = parse_config("fast: a\nslow: g\n")
        assert cfg.delta == frozenset()

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_config("speed: a\n")

    def test_malformed_alias(self):
        with pytest.raises(ParseError):
            parse_config("alias: P'\n")

    def test_diagnostic_spans(self):
        # each span covers its whole line, carriage return included
        text = (
            "fast: a, b\r\n"
            "// only a comment\n"
            "speed: g\n"
            "\n"
            "alias: P'\r\n"
            "slow: g, 1x\n"
            "alias: P' = P\n"
            "alias: P' = Q  // clash\n"
        )
        assert spans_of(parse_config, text) == [
            ("unrecognised configuration line: 'speed: g'", 3, 1, 30, 38),
            ("alias lines look like: alias: X' = X", 5, 1, 40, 50),
            ("invalid name '1x'", 6, 1, 51, 62),
            ("conflicting alias for P'", 8, 1, 77, 100),
        ]

    def test_render_config_round_trip(self):
        cfg = EquivConfig(
            fast=frozenset({"a", "b"}),
            slow=frozenset({"g"}),
            delta=frozenset({"P", "Q"}),
            aliases={"P'": "P", "Q'": "Q"},
        )
        assert parse_config(render_config(cfg)) == cfg
