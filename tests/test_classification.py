from __future__ import annotations

import random
from dataclasses import replace

import pytest

from fastslow import (
    EquivConfig,
    Leaf,
    Prefix,
    Role,
    SpeciesDef,
    StateCollisionError,
    SystemDef,
    VariableClassification,
    WeakViews,
    build_lts,
    check_fast_slow_relation,
    check_slow_relation,
    classify,
    classification_report,
    complete_fast,
    conserved_basis,
    parse_config,
    parse_model,
    relation_verdict,
    shortcut_check,
    slow_basis,
    slow_sufficiency,
    stoich_matrix,
    transform_lts,
)
from fastslow import rational
from fastslow.classification import (
    ShortcutLiftError,
    ShortcutPreconditionError,
    block_shape_ok,
    unit_species,
    vector_name,
)
from fastslow.equivalence import index_pairs
from oracles import slow_basis_oracle, stoich_column, violation_oracle
from randgen import random_partition, random_system
from systems import (
    inhibition_config,
    inhibition_full,
    inhibition_reduced,
    inhibition_relation,
    inhibition_relation_transformed,
    pathway,
)

CFG = inhibition_config()


def span_equal(basis_a, basis_b) -> bool:
    ra, rb = rational.rank(list(basis_a)), rational.rank(list(basis_b))
    return ra == rb == rational.rank(list(basis_a) + list(basis_b))


class TestStoichMatrix:
    def test_full_system(self):
        m = stoich_matrix(inhibition_full(5, 3, 0))
        assert m.species == ("S", "E", "I", "P", "EI", "SE")
        assert m.reactions == ("b1", "bm1", "a1", "am1", "g")
        assert stoich_column(m, "g") == (0, 1, 0, 1, 0, -1)
        assert stoich_column(m, "b1") == (-1, -1, 0, 0, 0, 1)
        assert stoich_column(m, "a1") == (0, 1, 1, 0, -1, 0)

    def test_reduced_system_modifiers_are_zero(self):
        m = stoich_matrix(inhibition_reduced(5, 3, 0))
        assert m.species == ("S'", "E'", "I'", "P'")
        assert m.reactions == ("g",)
        assert stoich_column(m, "g") == (-1, 0, 0, 1)

    def test_absent_species_zero(self):
        m = stoich_matrix(inhibition_full(5, 3, 0))
        i_row = m.entries[m.species.index("I")]
        assert i_row[m.reactions.index("b1")] == 0


class TestExplicitCooperation:
    """``(A[1] <> B[0]) <*> C[1]``: ``r`` fires as A with C or as B with C."""

    @staticmethod
    def load(fixtures):
        sys = parse_model((fixtures / "explicit_coop.bp").read_text())
        return sys, parse_config((fixtures / "explicit_coop.cfg").read_text())

    def test_one_column_per_instance(self, fixtures):
        m = stoich_matrix(self.load(fixtures)[0])
        assert m.species == ("A", "B", "C")
        assert m.reactions == ("r[A,C]", "r[B,C]")
        assert m.actions == ("r", "r")
        assert stoich_column(m, "r[A,C]") == (-1, 0, 0)
        assert stoich_column(m, "r[B,C]") == (0, 1, 0)
        assert m.columns_for(frozenset({"r"})) == [[-1, 0], [0, 1], [0, 0]]

    def test_only_the_activator_is_conserved(self, fixtures):
        sys, cfg = self.load(fixtures)
        cls = classify(sys, cfg)
        assert cls.conserved == ((0, 0, 1),)
        assert cls.constants == (1,)
        states = build_lts(sys).states
        assert {(1, 1, 1), (0, 0, 1)} <= set(states)  # A+B is not constant
        assert {rational.dot(v, s) for v in cls.conserved for s in states} == {1}
        doc = classification_report(sys, cfg)
        assert [e["name"] for e in doc["conserved"]] == ["C"]
        assert doc["blockShapeVerified"] is True


class TestConservedBasis:
    def test_full_system_span(self):
        basis = conserved_basis(stoich_matrix(inhibition_full(5, 3, 0)))
        expected = [
            (1, 0, 0, 1, 0, 1),  # S + P + SE
            (0, 1, 0, 0, 1, 1),  # E + EI + SE
            (0, 0, 1, 0, 1, 0),  # I + EI
        ]
        assert len(basis) == 3
        assert span_equal(basis, expected)
        assert all(x >= 0 for row in basis for x in row)

    def test_reduced_system_span(self):
        basis = conserved_basis(stoich_matrix(inhibition_reduced(5, 3, 0)))
        expected = [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)]
        assert span_equal(basis, expected)

    def test_full_row_rank_gives_empty_basis(self):
        sink = SystemDef(
            (SpeciesDef("A", (Prefix("x", 1, Role.REACTANT),), 2),), Leaf("A", 2)
        )
        assert conserved_basis(stoich_matrix(sink)) == []

    def test_nonnegative_preferred_when_rref_is_signed(self):
        # one reaction A -> B + C: the echelon basis of the left null space
        # contains B-C, but the span has the non-negative basis {A+B, A+C}
        from systems import chain

        species = (
            SpeciesDef("A", (Prefix("r", 1, Role.REACTANT),), 2),
            SpeciesDef("B", (Prefix("r", 1, Role.PRODUCT),), 2),
            SpeciesDef("C", (Prefix("r", 1, Role.PRODUCT),), 2),
        )
        sys = SystemDef(species, chain(Leaf("A", 1), Leaf("B", 0), Leaf("C", 0)))
        basis = conserved_basis(stoich_matrix(sys))
        assert len(basis) == 2
        assert all(x >= 0 for row in basis for x in row)
        assert span_equal(basis, [(1, 1, 0), (1, 0, 1)])


class TestSlowBasis:
    def test_full_system_slow_is_product(self):
        m = stoich_matrix(inhibition_full(5, 3, 0))
        conserved = conserved_basis(m)
        slow = slow_basis(m, CFG, conserved)
        assert slow == [(0, 0, 0, 1, 0, 0)]

    def test_reduced_system_prefers_delta_species(self):
        m = stoich_matrix(inhibition_reduced(5, 3, 0))
        conserved = conserved_basis(m)
        slow = slow_basis(m, CFG, conserved)
        assert slow == [(0, 0, 0, 1)]  # P', not S'

    def test_all_fast_gives_empty_slow_and_shortcut_refusal(self):
        flipflop = SystemDef(
            (
                SpeciesDef(
                    "A", (Prefix("x", 1, Role.REACTANT), Prefix("y", 1, Role.PRODUCT)), 2
                ),
            ),
            Leaf("A", 2),
        )
        cfg = EquivConfig(fast=frozenset({"x", "y"}), slow=frozenset())
        m = stoich_matrix(flipflop)
        conserved = conserved_basis(m)
        assert slow_basis(m, cfg, conserved) == []
        cls = classify(flipflop, cfg)
        assert cls.n_s == 0


class TestSlowBasisAgainstOracle:
    """``slow_basis`` against the selection that re-eliminates for every
    candidate (``oracles.slow_basis_oracle``)."""

    @staticmethod
    def agrees(sys: SystemDef, cfg: EquivConfig) -> bool:
        """Assert agreement; whether the basis needed the fill."""
        m = stoich_matrix(sys)
        conserved = conserved_basis(m)
        slow = slow_basis(m, cfg, conserved)
        assert slow == slow_basis_oracle(m, cfg, conserved)
        return any(unit_species(v, m.species) is None for v in slow)

    @pytest.mark.parametrize("sync_all", [True, False])
    def test_random_systems(self, sync_all):
        filled = 0
        for case in range(600):
            rng = random.Random(f"slow-basis-oracle:{sync_all}:{case}")
            sys = random_system(rng, sync_all=sync_all)
            fast, slow = random_partition(rng, sys.actions())
            delta = frozenset(s for s in sys.species_order if rng.random() < 0.4)
            filled += self.agrees(sys, EquivConfig(fast, slow, delta))
        assert filled > 50

    def test_pathway_and_inhibition(self):
        for k in range(2, 13):  # k=12: the classify job the benchmark repeats most
            assert self.agrees(*pathway(k, 1))  # slow S0+C1, S1+C2, ...
        for sys in (inhibition_full(5, 3, 0), inhibition_reduced(5, 3, 0)):
            self.agrees(sys, CFG)

    def test_fixtures(self, fixtures):
        configs = [parse_config(p.read_text()) for p in sorted(fixtures.glob("*.cfg"))]
        for path in sorted(fixtures.glob("*.bp")):
            if path.name != "broken.bp":
                for cfg in configs:
                    self.agrees(parse_model(path.read_text()), cfg)


class TestCompleteFast:
    def test_full_system_intermediates(self):
        m = stoich_matrix(inhibition_full(5, 3, 0))
        conserved = conserved_basis(m)
        slow = slow_basis(m, CFG, conserved)
        fast = complete_fast(m, conserved, slow)
        assert fast == [(0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]  # EI, SE

    def test_reduced_system_no_fast(self):
        m = stoich_matrix(inhibition_reduced(5, 3, 0))
        conserved = conserved_basis(m)
        slow = slow_basis(m, CFG, conserved)
        assert complete_fast(m, conserved, slow) == []

    def test_counts_add_up_and_rank_full(self):
        for sys in (inhibition_full(3, 2, 2), inhibition_reduced(3, 2, 2)):
            cls = classify(sys, CFG)
            n = len(cls.species)
            assert len(cls.conserved) + cls.n_s + cls.n_f == n
            stack = [list(v) for v in cls.conserved + cls.slow + cls.fast]
            assert rational.rank(stack) == n
            m = stoich_matrix(sys)
            assert rational.rank([list(v) for v in cls.conserved]) == n - rational.rank(
                [list(row) for row in zip(*m.entries)]
            )

    def test_block_shape(self):
        sys = inhibition_full(5, 3, 0)
        m = stoich_matrix(sys)
        assert block_shape_ok(m, CFG, classify(sys, CFG))


class TestTransform:
    def test_example_state(self):
        sys = inhibition_full(5, 3, 0)
        lts = build_lts(sys)
        cls = classify(sys, CFG)
        transformed = transform_lts(lts, cls)
        assert transformed.species_order == ("P", "EI", "SE")
        i = lts.index_of((2, 3, 0, 3, 0, 0))
        assert transformed.states[i] == (3, 0, 0)
        # the transition columns are shared, not copied
        assert transformed.starts is lts.starts
        assert transformed.labels is lts.labels
        assert transformed.targets is lts.targets

    def test_reduced_single_coordinate(self):
        sys = inhibition_reduced(5, 3, 0)
        lts = build_lts(sys)
        cls = classify(sys, CFG)
        transformed = transform_lts(lts, cls)
        i = lts.index_of((2, 3, 0, 3))
        assert transformed.states[i] == (3,)

    def test_identity_classification_keeps_states(self):
        sys = inhibition_reduced(3, 1, 0)
        lts = build_lts(sys)
        n = len(sys.species)
        units = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        cls = VariableClassification(
            species=sys.species_order,
            conserved=(),
            constants=(),
            slow=units[:1],
            fast=units[1:],
        )
        transformed = transform_lts(lts, cls)
        assert transformed.states == lts.states

    def test_singular_stack_rejected(self):
        sys = inhibition_reduced(3, 1, 0)
        lts = build_lts(sys)
        from fastslow.classification import ClassificationError

        with pytest.raises(ClassificationError):
            transform_lts(
                lts,
                VariableClassification(
                    species=sys.species_order,
                    conserved=(),
                    constants=(),
                    slow=((1, 0, 0, 0),),
                    fast=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
                ),
            )

    def test_collision_error_raised(self):
        sys = inhibition_reduced(3, 1, 0)
        lts = build_lts(sys)
        # full-rank stack, but the "conserved" part wrongly claims the two
        # coordinates that actually vary; the kept (E', I') pair collapses
        # every state to (1, 0)
        bogus = VariableClassification(
            species=sys.species_order,
            conserved=((1, 0, 0, 0), (0, 0, 0, 1)),  # S' and P' are not conserved
            constants=(3, 0),
            slow=((0, 1, 0, 0),),
            fast=((0, 0, 1, 0),),
        )
        with pytest.raises(StateCollisionError):
            transform_lts(lts, bogus)


class TestSufficiency:
    def test_inhibition_pair_applicable(self):
        cls_a = classify(inhibition_full(5, 3, 0), CFG)
        cls_b = classify(inhibition_reduced(5, 3, 0), CFG)
        assert slow_sufficiency(cls_a, cls_b, CFG) == ()

    def test_fast_variables_in_second_model(self):
        cls_a = classify(inhibition_reduced(5, 3, 0), CFG)
        cls_b = classify(inhibition_full(5, 3, 0), CFG)
        reasons = slow_sufficiency(cls_a, cls_b, CFG)
        assert any("fast variables" in r for r in reasons)

    def test_non_unit_slow_variable(self):
        cls_a = classify(inhibition_full(5, 3, 0), CFG)
        doctored = VariableClassification(
            species=cls_a.species,
            conserved=cls_a.conserved,
            constants=cls_a.constants,
            slow=((1, 0, 0, 0, 0, 1),),  # S + SE, not a single species
            fast=cls_a.fast,
        )
        cls_b = classify(inhibition_reduced(5, 3, 0), CFG)
        reasons = slow_sufficiency(doctored, cls_b, CFG)
        assert any("individual species" in r for r in reasons)

    def test_reasons_name_their_model(self):
        cls = classify(inhibition_full(5, 3, 0), CFG)
        doctored = replace(cls, slow=((1, 0, 0, 0, 0, 1),))  # S + SE
        assert slow_sufficiency(doctored, doctored, CFG) == (
            "second model has fast variables",
            "first model has a slow variable that is not an individual species: S+SE",
            "second model has a slow variable that is not an individual species: S+SE",
        )

    def test_mismatched_slow_species(self):
        cls_a = classify(inhibition_full(5, 3, 0), CFG)
        cls_b = classify(inhibition_reduced(5, 3, 0), CFG)
        blind = EquivConfig(fast=CFG.fast, slow=CFG.slow, delta=CFG.delta)
        reasons = slow_sufficiency(cls_a, cls_b, blind)  # no alias: P vs P'
        assert reasons == ("slow species differ between the models: ['P'] vs [\"P'\"]",)


class TestShortcut:
    @pytest.mark.parametrize("params", [(5, 3, 0), (3, 2, 2)])
    def test_pipeline_equivalent(self, params):
        result = shortcut_check(
            inhibition_full(*params),
            inhibition_reduced(*params),
            CFG,
            inhibition_relation_transformed(*params),
        )
        assert result.slow_outcome.equivalent
        assert result.fastslow_outcome.equivalent
        assert result.outcome.equivalent

    def test_valid_relation_without_initial_pair(self):
        # the terminal pair alone, product level 5, is a bisimulation
        result = shortcut_check(
            inhibition_full(5, 3, 0), inhibition_reduced(5, 3, 0), CFG, [((5, 0, 0), (5,))]
        )
        assert result.slow_outcome.verdict == "equivalent"
        assert result.outcome.verdict == "relation-valid-but-initial-states-unrelated"
        assert result.outcome.witness is None

    def test_unequal_slow_coordinates_rejected(self):
        with pytest.raises(ShortcutPreconditionError) as err:
            shortcut_check(
                inhibition_full(2, 1, 0),
                inhibition_reduced(2, 1, 0),
                CFG,
                [((0, 0, 0), (1,))],
            )
        assert any("slow coordinates" in r for r in err.value.reasons)

    def test_unreachable_coordinates_rejected(self):
        message = r"^no reachable first-model state has transformed coordinates \(9, 0, 0\)$"
        with pytest.raises(ShortcutLiftError, match=message):
            shortcut_check(
                inhibition_full(5, 3, 0), inhibition_reduced(5, 3, 0), CFG, [((9, 0, 0), (9,))]
            )

    @pytest.mark.parametrize("params", [(5, 3, 0), (3, 2, 2), (20, 3, 1)])
    def test_outcomes_match_independent_checks(self, params):
        # the shortcut shares one pair of weak views between its checks and
        # replays only the fast clauses; each check run on its own, on
        # freshly built systems, must give the same verdicts and witnesses
        full, reduced = inhibition_full(*params), inhibition_reduced(*params)
        lts_a, lts_b = build_lts(full), build_lts(reduced)
        t_a = transform_lts(lts_a, classify(full, CFG))
        t_b = transform_lts(lts_b, classify(reduced, CFG))
        for t, lts in ((t_a, lts_a), (t_b, lts_b)):
            assert t.starts is lts.starts and t.labels is lts.labels and t.targets is lts.targets
        fast_slow_violated = violation_oracle(lts_a, lts_b, CFG, include_fast=True)
        slow_violated = violation_oracle(lts_a, lts_b, CFG, include_fast=False)
        lift = inhibition_relation_transformed(*params)
        dropped = random.Random(f"shortcut:{params}").sample(range(len(lift)), 6)
        relations = [lift, [lift[-1]]] + [lift[:i] + lift[i + 1 :] for i in dropped]
        fast_failures = 0
        for relation in relations:
            result = shortcut_check(full, reduced, CFG, relation)
            rel = index_pairs(relation, t_a, t_b)
            slow = check_slow_relation(rel, t_a, t_b, CFG)
            assert result.slow_outcome == slow
            if not slow.equivalent:
                assert result.fastslow_outcome == slow
                continue
            direct = check_fast_slow_relation(rel, lts_a, lts_b, CFG)
            assert result.fastslow_outcome == relation_verdict(direct, rel, lts_a, lts_b)
            witness = direct.witness
            if witness is not None:
                fast_failures += 1
                assert witness.kind == "fast"
                pair = (lts_a.index_of(witness.pair[0]), lts_b.index_of(witness.pair[1]))
                assert fast_slow_violated(rel, *pair) and not slow_violated(rel, *pair)
        # some dropped pair passes the slow check and fails only a fast clause
        assert fast_failures

    def test_one_pair_of_weak_views(self, monkeypatch):
        built = []
        init = WeakViews.__init__

        def counted(self, lts, cfg):
            built.append(lts)
            init(self, lts, cfg)

        monkeypatch.setattr(WeakViews, "__init__", counted)
        params = (5, 3, 0)
        result = shortcut_check(
            inhibition_full(*params),
            inhibition_reduced(*params),
            CFG,
            inhibition_relation_transformed(*params),
        )
        assert result.outcome.equivalent
        assert len(built) == 2

    def test_cross_validation_against_untransformed(self):
        params = (3, 2, 2)
        a = build_lts(inhibition_full(*params))
        b = build_lts(inhibition_reduced(*params))
        rel = index_pairs(inhibition_relation(*params), a, b)
        assert check_fast_slow_relation(rel, a, b, CFG).equivalent


class TestReport:
    def test_report_shape(self):
        sys = inhibition_full(5, 3, 0)
        doc = classification_report(sys, CFG)
        assert [e["name"] for e in doc["slow"]] == ["P"]
        assert [e["species"] for e in doc["fast"]] == ["EI", "SE"]
        assert [e["constant"] for e in doc["conserved"]] == [5, 3, 0]
        assert doc["blockShapeVerified"] is True
        assert doc["warnings"] == []

    def test_vector_name(self):
        assert vector_name((1, 0, 1, 1), ("S", "E", "P", "SE")) == "S+P+SE"
        assert vector_name((2, -1, 0, 0), ("S", "E", "P", "SE")) == "2*S-E"
        assert vector_name((0, 0, 0, 0), ("S", "E", "P", "SE")) == "0"
