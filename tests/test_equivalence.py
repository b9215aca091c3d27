from __future__ import annotations

import json
import random

import pytest

from fastslow import (
    CheckOutcome,
    EquivConfig,
    InvalidModelError,
    Leaf,
    Prefix,
    Role,
    SpeciesDef,
    SystemDef,
    build_lts,
    check_fast_slow_relation,
    check_slow_relation,
    compose,
    congruence_probe,
    largest_fast_slow,
    largest_slow,
    relation_to_json,
    relation_verdict,
    resolve_relation,
    shared_fast_actions,
)
from fastslow.equivalence import (
    EquivalenceError,
    RelationResolutionError,
    config_problems,
)
from fastslow.semantics import filter_label
from oracles import (
    fast_edges,
    largest_sweep_oracle,
    swapped,
    violation_oracle,
    warshall_closure,
    weak_slow_oracle,
)
from randgen import SCC_CONFIG, SCC_SHAPES, permuted, random_case, random_scc_lts
from systems import (
    burst_systems,
    inhibition_config,
    inhibition_full,
    inhibition_reduced,
    inhibition_relation,
    pathway,
    producer_systems,
)

CFG = inhibition_config()

BURST_WITNESS = (
    "at pair ((0,1), (0,1)): left state (0,1) offers fast step to (2,0) with no "
    "matching weak move from the right state landing in the relation"
)


def inhibition_lts_pair(n, m, p):
    return build_lts(inhibition_full(n, m, p)), build_lts(inhibition_reduced(n, m, p))


class TestCheckFastSlow:
    @pytest.mark.parametrize("params", [(5, 3, 0), (3, 2, 2), (2, 2, 3)])
    def test_closed_form_relation_passes(self, params):
        a, b = inhibition_lts_pair(*params)
        rel = resolve_relation(inhibition_relation(*params), a, b)
        outcome = check_fast_slow_relation(rel, a, b, CFG)
        assert outcome.verdict == "equivalent"
        assert outcome.witness is None

    def test_mismatched_pair_fails_with_gamma_witness(self):
        a, b = inhibition_lts_pair(5, 3, 0)
        rel = resolve_relation([[(5, 3, 0, 0, 0, 0), (4, 3, 0, 1)]], a, b)
        outcome = check_fast_slow_relation(rel, a, b, CFG)
        assert outcome.verdict == "relation-not-a-bisimulation"
        assert outcome.witness is not None
        assert outcome.witness.action == "g"
        assert outcome.witness.side == "right"
        assert "slow step" in outcome.witness.describe()

    def test_empty_relation_rejected(self):
        a, b = inhibition_lts_pair(2, 1, 0)
        for check in (check_fast_slow_relation, check_slow_relation):
            with pytest.raises(EquivalenceError, match="^empty-relation$"):
                check(frozenset(), a, b, CFG)

    def test_index_out_of_range(self):
        a, b = inhibition_lts_pair(2, 1, 0)
        for pair, shown in (((0, 99), "(0,99)"), ((-1, 0), "(-1,0)")):
            with pytest.raises(EquivalenceError) as raised:
                check_fast_slow_relation(frozenset({(0, 0), pair}), a, b, CFG)
            assert str(raised.value) == f"index-out-of-range({shown})"

    def test_identity_relation_accepted_on_self(self):
        a, _ = inhibition_lts_pair(3, 2, 2)
        cfg = EquivConfig(
            fast=CFG.fast, slow=CFG.slow, delta=frozenset(a.species_order)
        )
        rel = frozenset((i, i) for i in range(a.n_states))
        assert check_fast_slow_relation(rel, a, a, cfg).equivalent


class TestLargestFastSlow:
    @pytest.mark.parametrize("params", [(5, 3, 0), (3, 2, 2), (2, 2, 3)])
    def test_inhibition_pair_equivalent(self, params):
        a, b = inhibition_lts_pair(*params)
        rel, outcome = largest_fast_slow(a, b, CFG)
        assert outcome.equivalent
        closed_form = resolve_relation(inhibition_relation(*params), a, b)
        assert closed_form <= rel

    def test_burst_components_equivalent(self):
        s1, s2, _, cfg = burst_systems()
        _, outcome = largest_fast_slow(build_lts(s1), build_lts(s2), cfg)
        assert outcome.equivalent

    def test_burst_composed_not_equivalent(self):
        s1, s2, ctx, cfg = burst_systems()
        a = build_lts(compose(s1, ctx))
        b = build_lts(compose(s2, ctx))
        _, outcome = largest_fast_slow(a, b, cfg)
        assert outcome.verdict == "not-equivalent"
        assert outcome.witness is not None
        text = outcome.witness.describe()
        assert "no matching weak move" in text
        assert text == BURST_WITNESS

    def test_soundness_of_computed_relation(self):
        a, b = inhibition_lts_pair(3, 2, 2)
        rel, _ = largest_fast_slow(a, b, CFG)
        assert check_fast_slow_relation(rel, a, b, CFG).equivalent

    def test_maximality_sampled(self):
        a, b = inhibition_lts_pair(3, 2, 2)
        rel, _ = largest_fast_slow(a, b, CFG)
        deleted = sorted(
            {(p, q) for p in range(a.n_states) for q in range(b.n_states)}
            - rel
        )
        for pair in deleted[:5] + deleted[-5:]:
            bigger = rel | {pair}
            outcome = check_fast_slow_relation(bigger, a, b, CFG)
            assert outcome.verdict == "relation-not-a-bisimulation"

    def test_verdict_symmetric_under_swap(self):
        for case in range(30):
            sys_a, lts_a, sys_b, lts_b, cfg = random_case(case, seed="swap")
            _, left = largest_fast_slow(lts_a, lts_b, cfg)
            _, right = largest_fast_slow(lts_b, lts_a, swapped(cfg))
            assert left.verdict == right.verdict

    def test_self_equivalence_under_identity(self):
        for case in range(30):
            _, lts, _, _, cfg = random_case(case, seed="self")
            rel = frozenset((i, i) for i in range(lts.n_states))
            assert check_fast_slow_relation(rel, lts, lts, cfg).equivalent


def assert_witness_unanswered(witness, rel, a, b, cfg):
    """The witness names a real challenger move of its side that no weak
    answer of the other side matches inside ``rel``; recomputed with the
    oracles, not with the game."""
    p, q = a.index_of(witness.pair[0]), b.index_of(witness.pair[1])
    if witness.side == "left":
        challenger, defender, src, other = a, b, p, q
    else:
        challenger, defender, src, other = b, a, q, p
    dst = challenger.index_of(witness.target)
    if witness.kind == "slow":
        assert any(
            t.src == src
            and t.dst == dst
            and t.label.action == witness.action
            and filter_label(t.label, cfg) == witness.label
            for t in challenger.transitions
        )
        key = (other, witness.action, witness.label)
        answers = weak_slow_oracle(defender, cfg).get(key, set())
    else:
        fast = fast_edges(defender, cfg)
        assert (src, dst) in fast_edges(challenger, cfg)
        answers = warshall_closure(defender.n_states, fast)[other]
    for answer in answers:
        pair = (dst, answer) if witness.side == "left" else (answer, dst)
        assert pair not in rel


MODES = [(True, largest_fast_slow), (False, largest_slow)]


class TestLargestAgainstSweepOracle:
    """The worklist engine against the delete-from-the-cross-product sweep.

    Each comparison also runs with the sides swapped, so that the
    re-queueing after right-side challenges is exercised as often as the
    re-queueing after left-side ones.
    """

    @staticmethod
    def agree(a, b, cfg):
        for x, y, c in ((a, b, cfg), (b, a, swapped(cfg))):
            for include_fast, largest in MODES:
                rel, outcome = largest(x, y, c)
                expected = largest_sweep_oracle(x, y, c, include_fast)
                assert rel == expected
                assert outcome.equivalent == ((x.initial, y.initial) in expected)
                assert (outcome.witness is None) == outcome.equivalent
                if outcome.witness is not None:
                    assert_witness_unanswered(outcome.witness, expected, x, y, c)

    @pytest.mark.parametrize("sync_all", [True, False])
    def test_random_cases(self, sync_all):
        for case in range(300):
            _, a, _, b, cfg = random_case(case, seed="sweep-oracle", sync_all=sync_all)
            self.agree(a, b, cfg)

    @pytest.mark.parametrize("params", [(20, 3, 1), (30, 4, 2)])
    def test_inhibition_full_vs_reduced(self, params):
        a, b = inhibition_lts_pair(*params)
        self.agree(a, b, CFG)

    def test_pathway_self_comparison(self):
        sys_def, cfg = pathway(3, 3)
        lts = build_lts(sys_def)
        assert lts.n_states == 63
        self.agree(lts, lts, cfg)

    def test_burst_witness_unanswered(self):
        s1, s2, ctx, cfg = burst_systems()
        self.agree(build_lts(compose(s1, ctx)), build_lts(compose(s2, ctx)), cfg)

    @pytest.mark.parametrize("shape", SCC_SHAPES)
    def test_large_fast_sccs(self, shape):
        # every third pair is isomorphic, so both verdicts occur
        for case in range(60):
            rng = random.Random(f"scc:{shape}:{case}")
            a = random_scc_lts(rng, shape)
            b = permuted(a, rng) if case % 3 == 0 else random_scc_lts(rng, shape)
            self.agree(a, b, SCC_CONFIG)


class TestCheckAgainstViolationOracle:
    """Relation verification against the oracle's clause check, on a
    seeded random subset of the cross product and on the oracle's largest
    relation: the verdict is equivalent exactly when no pair is violated,
    and otherwise the witness is a real unanswered move at the first
    violated pair in sorted order."""

    @pytest.mark.parametrize(
        "include_fast, check",
        [(True, check_fast_slow_relation), (False, check_slow_relation)],
        ids=["fast-slow", "slow"],
    )
    def test_random_relations(self, include_fast, check):
        verdicts = set()
        for case in range(500):
            _, a, _, b, cfg = random_case(case, seed="check-oracle", sync_all=case % 2 == 0)
            rng = random.Random(f"check-oracle:{case}")
            cross = [(p, q) for p in range(a.n_states) for q in range(b.n_states)]
            density = rng.choice((0.2, 0.5, 0.9))
            subset = frozenset(pair for pair in cross if rng.random() < density)
            largest = frozenset(largest_sweep_oracle(a, b, cfg, include_fast))
            violated = violation_oracle(a, b, cfg, include_fast)
            for rel in (subset or frozenset([rng.choice(cross)]), largest):
                if not rel:
                    continue
                outcome = check(rel, a, b, cfg)
                verdicts.add(outcome.verdict)
                first = next((pair for pair in sorted(rel) if violated(rel, *pair)), None)
                assert outcome.equivalent == (first is None)
                if first is not None:
                    assert outcome.verdict == "relation-not-a-bisimulation"
                    assert outcome.witness.pair == (a.states[first[0]], b.states[first[1]])
                    assert_witness_unanswered(outcome.witness, rel, a, b, cfg)
        assert verdicts == {"equivalent", "relation-not-a-bisimulation"}


class TestRelationVerdict:
    """The verdict on the two systems from a relation check, on seeded
    random relations: equivalent exactly when the oracle finds no
    violated pair and the relation holds the initial pair, and a valid
    relation without that pair gets its own verdict."""

    @pytest.mark.parametrize(
        "include_fast, check",
        [(True, check_fast_slow_relation), (False, check_slow_relation)],
        ids=["fast-slow", "slow"],
    )
    def test_random_relations(self, include_fast, check):
        verdicts = set()
        for case in range(500):
            _, a, _, b, cfg = random_case(case, seed="relation-verdict", sync_all=case % 2 == 1)
            rng = random.Random(f"relation-verdict:{case}")
            cross = [(p, q) for p in range(a.n_states) for q in range(b.n_states)]
            subset = frozenset(pair for pair in cross if rng.random() < 0.5)
            largest = frozenset(largest_sweep_oracle(a, b, cfg, include_fast))
            initial = (a.initial, b.initial)
            violated = violation_oracle(a, b, cfg, include_fast)
            for rel in (subset, largest, largest - {initial}):
                if not rel:
                    continue
                outcome = relation_verdict(check(rel, a, b, cfg), rel, a, b)
                verdicts.add(outcome.verdict)
                valid = not any(violated(rel, *pair) for pair in rel)
                assert outcome.equivalent == (valid and initial in rel)
                if valid and initial not in rel:
                    assert outcome == CheckOutcome("relation-valid-but-initial-states-unrelated")
        assert verdicts == {
            "equivalent",
            "relation-not-a-bisimulation",
            "relation-valid-but-initial-states-unrelated",
        }


class TestSlowChecks:
    def test_fast_slow_relation_also_slow(self):
        a, b = inhibition_lts_pair(3, 2, 2)
        rel = resolve_relation(inhibition_relation(3, 2, 2), a, b)
        assert check_slow_relation(rel, a, b, CFG).equivalent

    def test_off_by_one_pairing_fails(self):
        a, b = inhibition_lts_pair(5, 3, 0)
        # pair each full state with the reduced state one product ahead
        pairs = []
        for k in range(5):
            for j in range(min(3, 5 - k) + 1):
                pairs.append([(5 - (k + j), 3 - j, 0, k, 0, j), (5 - (k + 1), 3, 0, k + 1)])
        rel = resolve_relation(pairs, a, b)
        outcome = check_slow_relation(rel, a, b, CFG)
        assert outcome.verdict == "relation-not-a-bisimulation"
        assert outcome.witness is not None and outcome.witness.action == "g"

    def test_largest_slow_contains_fast_slow(self):
        a, b = inhibition_lts_pair(3, 2, 2)
        fs, fs_out = largest_fast_slow(a, b, CFG)
        sl, sl_out = largest_slow(a, b, CFG)
        assert fs_out.equivalent and sl_out.equivalent
        assert fs <= sl

    def test_no_slow_actions_gives_all_pairs(self):
        spec = SpeciesDef("A", (Prefix("x", 1, Role.PRODUCT),), 2)
        sys = SystemDef((spec,), Leaf("A", 0))
        lts = build_lts(sys)
        cfg = EquivConfig(fast=frozenset({"x"}), slow=frozenset())
        rel, outcome = largest_slow(lts, lts, cfg)
        assert outcome.equivalent
        assert len(rel) == lts.n_states * lts.n_states

    def test_renamed_slow_action_not_bisimilar(self):
        a = build_lts(inhibition_full(2, 1, 0))
        renamed = inhibition_reduced(2, 1, 0)
        renamed = SystemDef(
            tuple(
                SpeciesDef(
                    s.name,
                    tuple(Prefix("d", p.stoich, p.role) for p in s.prefixes),
                    s.max_count,
                )
                for s in renamed.species
            ),
            renamed.tree,
            renamed.step_size,
        )
        b = build_lts(renamed)
        cfg = EquivConfig(
            fast=CFG.fast, slow=CFG.slow | {"d"}, delta=CFG.delta, aliases=dict(CFG.aliases)
        )
        _, outcome = largest_slow(a, b, cfg)
        assert outcome.verdict == "not-equivalent"

    def test_empty_delta_matches_names_only(self):
        # same action name, entirely different participants: equivalent
        # with an empty delta, distinguished once the labels are compared
        up = SystemDef(
            (SpeciesDef("U", (Prefix("a", 1, Role.PRODUCT),), 2),), Leaf("U", 0)
        )
        down = SystemDef(
            (SpeciesDef("D", (Prefix("a", 1, Role.REACTANT),), 2),), Leaf("D", 2)
        )
        cfg_blind = EquivConfig(fast=frozenset(), slow=frozenset({"a"}))
        _, blind = largest_fast_slow(build_lts(up), build_lts(down), cfg_blind)
        assert blind.equivalent
        cfg_seeing = EquivConfig(
            fast=frozenset(),
            slow=frozenset({"a"}),
            delta=frozenset({"U"}),
            aliases={"D": "U"},
        )
        _, seeing = largest_fast_slow(build_lts(up), build_lts(down), cfg_seeing)
        assert seeing.verdict == "not-equivalent"


class TestSharedFastActions:
    def test_disjoint_alphabets(self):
        c1, _, ctx, cfg = producer_systems()
        assert shared_fast_actions(c1, ctx, cfg) == frozenset()

    def test_burst_context_shares_alpha(self):
        s1, s2, ctx, cfg = burst_systems()
        assert shared_fast_actions(s1, ctx, cfg) == frozenset({"a"})
        assert shared_fast_actions(s2, ctx, cfg) == frozenset()

    def test_self_sharing(self):
        s1, _, _, cfg = burst_systems()
        assert shared_fast_actions(s1, s1, cfg) == frozenset({"a"})


class TestCongruenceProbe:
    def test_inhibition_with_fresh_slow_context(self):
        extra = SystemDef(
            (SpeciesDef("Z", (Prefix("z", 1, Role.REACTANT),), 2),),
            Leaf("Z", 2),
        )
        cfg = EquivConfig(
            fast=CFG.fast, slow=CFG.slow | {"z"}, delta=CFG.delta, aliases=dict(CFG.aliases)
        )
        probe = congruence_probe(
            inhibition_full(2, 1, 0), inhibition_reduced(2, 1, 0), extra, cfg
        )
        assert probe.side_condition_ok
        assert probe.component.equivalent
        assert probe.composed.equivalent

    def test_composition_clash_found_before_any_build(self):
        # the context repeats the first component's species
        s1, s2, _, cfg = burst_systems()
        with pytest.raises(InvalidModelError, match=r"repeated-species\(S1\)"):
            congruence_probe(s1, s2, s1, cfg, max_states=1)

    def test_configuration_checked_before_any_build(self):
        # the configuration leaves the components' fast action b unpartitioned
        s1, s2, ctx, _ = burst_systems()
        cfg = EquivConfig(fast=frozenset({"a"}), slow=frozenset({"g"}))
        with pytest.raises(EquivalenceError, match=r"^unpartitioned-action\(b\)$"):
            congruence_probe(s1, s2, ctx, cfg, max_states=1)

    def test_burst_counterexample(self):
        s1, s2, ctx, cfg = burst_systems()
        probe = congruence_probe(s1, s2, ctx, cfg)
        assert not probe.side_condition_ok
        assert probe.shared_with_p1 == frozenset({"a"})
        assert probe.component.equivalent
        assert probe.composed.verdict == "not-equivalent"

    def test_producer_instance(self):
        c1, c2, ctx, cfg = producer_systems()
        probe = congruence_probe(c1, c2, ctx, cfg)
        assert probe.side_condition_ok
        assert probe.component.equivalent
        assert probe.composed.equivalent

    def test_extension_preserves_equivalence(self):
        # extending two equivalent species by the same disjoint species
        # keeps them equivalent, at every starting level
        from fastslow import extend_species

        for level in range(0, 4):
            c1, c2, ctx, cfg = producer_systems(level)
            fresh = ctx.species_def("C")
            e1 = extend_species(c1.species_def("C1"), fresh)
            e2 = extend_species(c2.species_def("C2"), fresh)
            sys1 = SystemDef((e1,), Leaf(e1.name, level))
            sys2 = SystemDef((e2,), Leaf(e2.name, level))
            cfg2 = EquivConfig(fast=cfg.fast, slow=cfg.slow)
            _, outcome = largest_fast_slow(build_lts(sys1), build_lts(sys2), cfg2)
            assert outcome.equivalent, level


class TestRelationIO:
    def test_round_trip(self):
        a, b = inhibition_lts_pair(2, 1, 0)
        rel, _ = largest_fast_slow(a, b, CFG)
        obj = json.loads(relation_to_json(rel, a, b))
        assert resolve_relation(obj, a, b) == rel

    def test_unresolvable_vector_is_error(self):
        a, b = inhibition_lts_pair(2, 1, 0)
        with pytest.raises(RelationResolutionError):
            resolve_relation([[(9, 9, 9, 9, 9, 9), (2, 1, 0, 0)]], a, b)

    def test_config_problems(self):
        a, b = inhibition_full(2, 1, 0), inhibition_reduced(2, 1, 0)
        assert config_problems(CFG, a, b) == []
        bad = EquivConfig(
            fast=frozenset({"am1", "b1"}),
            slow=frozenset({"g"}),
            delta=frozenset({"Q"}),
        )
        # a1 is declared but never fires: I and EI start at level 0
        assert "a1" in a.actions() and "a1" not in build_lts(a).actions()
        assert config_problems(bad, a, b) == [
            "unpartitioned-action(a1)",
            "unpartitioned-action(bm1)",
            "unknown-species-in-delta(Q)",
        ]
