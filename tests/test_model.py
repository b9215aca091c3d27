from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fastslow import (
    EquivConfig,
    InvalidModelError,
    Leaf,
    Node,
    OverlappingActionsError,
    Prefix,
    Role,
    SpeciesDef,
    SystemDef,
    compose,
    extend_species,
    max_level,
    validate_species,
    validate_system,
)
from fastslow import parse_model
from oracles import dangling_coop_oracle, swapped
from randgen import random_system
from systems import burst_systems, inhibition_full, inhibition_reduced

FIXTURES = Path(__file__).parent / "fixtures"


def species(name, *prefixes, max_count=3):
    return SpeciesDef(name, tuple(prefixes), max_count)


class TestValidateSpecies:
    def test_inhibition_enzyme_is_valid(self):
        enzyme = inhibition_full().species_def("E")
        assert len(enzyme.prefixes) == 5
        assert validate_species(enzyme) == []

    def test_duplicate_action(self):
        bad = species(
            "C", Prefix("a", 1, Role.REACTANT), Prefix("a", 1, Role.PRODUCT)
        )
        report = validate_species(bad)
        assert any(p.startswith("duplicate-action(a)") for p in report)

    def test_single_summand_is_valid(self):
        assert validate_species(species("C", Prefix("a", 1, Role.REACTANT))) == []

    def test_empty_definition(self):
        assert any(
            p.startswith("empty-definition") for p in validate_species(species("C"))
        )

    def test_zero_stoichiometry(self):
        bad = species("C", Prefix("a", 0, Role.REACTANT))
        assert any(p.startswith("invalid-stoichiometry") for p in validate_species(bad))

    def test_accepts_iff_actions_pairwise_distinct(self):
        # bounded-exhaustive over tiny species bodies
        pool = [
            Prefix(action, 1, role)
            for action in ("a", "b")
            for role in Role
        ]
        for size in (1, 2, 3):
            for body in itertools.product(pool, repeat=size):
                sdef = species("C", *body)
                names = [p.action for p in body]
                ok = len(set(names)) == len(names)
                assert (validate_species(sdef) == []) == ok


class TestValidateSystem:
    def test_inhibition_system_valid(self):
        assert validate_system(inhibition_full()) == []
        assert validate_system(inhibition_reduced()) == []

    def test_repeated_species_leaf(self):
        s = species("S", Prefix("a", 1, Role.REACTANT), max_count=5)
        sys = SystemDef((s,), Node(Leaf("S", 0), None, Leaf("S", 1)))
        assert any(p.startswith("repeated-species(S)") for p in validate_system(sys))

    def test_level_out_of_range(self):
        s = species("S", Prefix("a", 1, Role.REACTANT), max_count=5)
        sys = SystemDef((s,), Leaf("S", 6))
        assert any(
            p.startswith("level-out-of-range(S)") for p in validate_system(sys)
        )

    def test_last_repeated_definition_decides_the_level_check(self):
        # the level is checked only against a valid definition
        good = species("S", Prefix("a", 1, Role.REACTANT), max_count=5)
        empty = species("S")
        assert validate_system(SystemDef((empty, good), Leaf("S", 6))) == [
            "empty-definition(S)",
            "repeated-species(S)",
            "level-out-of-range(S): initial 6 not in 0..5",
        ]
        assert validate_system(SystemDef((good, empty), Leaf("S", 6))) == [
            "repeated-species(S)",
            "empty-definition(S)",
        ]

    def test_dangling_coop_action(self):
        a = species("A", Prefix("x", 1, Role.REACTANT))
        b = species("B", Prefix("y", 1, Role.PRODUCT))
        sys = SystemDef((a, b), Node(Leaf("A", 1), frozenset({"x"}), Leaf("B", 0)))
        assert any(
            p.startswith("dangling-coop-action(x)") for p in validate_system(sys)
        )

    def test_unknown_and_unused_species(self):
        a = species("A", Prefix("x", 1, Role.REACTANT))
        b = species("B", Prefix("y", 1, Role.PRODUCT))
        sys = SystemDef((a, b), Leaf("A", 1))
        report = validate_system(sys)
        assert any(p.startswith("unused-species(B)") for p in report)
        sys2 = SystemDef((a,), Leaf("Z", 0))
        assert any(p.startswith("unknown-species(Z)") for p in validate_system(sys2))


def with_extra_coop(sys: SystemDef, rng: random.Random) -> SystemDef:
    """``sys`` with an action added to every cooperation set: one of its
    own, which may be missing on a side, or one no species offers."""
    pool = sorted(sys.actions()) + ["zz"]

    def walk(tree):
        if isinstance(tree, Leaf):
            return tree
        coop = (tree.coop or frozenset()) | {rng.choice(pool)}
        return Node(walk(tree.left), coop, walk(tree.right))

    return dataclasses.replace(sys, tree=walk(sys.tree))


def deep_chain(n: int) -> SystemDef:
    """Right-nested chain X0 <s0> (X1 <s1> (... X{n-1})) where X{i} offers
    s{i} and s{i-1}; every seventh set also names ``zz``, which no species
    offers."""
    defs = []
    for i in range(n):
        actions = [f"s{i}", f"s{i - 1}"] if i else ["s0"]
        defs.append(species(f"X{i}", *(Prefix(a, 1, Role.GENERIC) for a in actions)))
    tree = Leaf(f"X{n - 1}", 0)
    for i in range(n - 2, -1, -1):
        coop = {f"s{i}", "zz"} if i % 7 == 0 else {f"s{i}"}
        tree = Node(Leaf(f"X{i}", 0), frozenset(coop), tree)
    return SystemDef(tuple(defs), tree)


class TestValidateSystemAgainstOracle:
    """The one-pass cooperation check against re-walking both subtrees at
    every node: the same problems, in the same order."""

    @staticmethod
    def agree(sys: SystemDef) -> list[str]:
        problems = validate_system(sys)
        dangling = dangling_coop_oracle(sys)
        others = [p for p in problems if not p.startswith("dangling-coop-action(")]
        assert problems == others + dangling
        return dangling

    def test_random_systems(self):
        some = several = 0
        for case in range(400):
            rng = random.Random(f"validate:{case}")
            sys = random_system(rng, sync_all=False)
            assert self.agree(sys) == []
            dangling = self.agree(with_extra_coop(sys, rng))
            some += bool(dangling)
            several += len(dangling) > 1
        assert some > 200 and several > 40

    def test_every_fixture(self):
        for path in sorted(FIXTURES.glob("*.bp")):
            if path.name != "broken.bp":
                self.agree(parse_model(path.read_text()))

    def test_deep_chain(self):
        dangling = self.agree(deep_chain(300))
        assert dangling == ["dangling-coop-action(zz)"] * 43


class TestMaxLevel:
    @pytest.mark.parametrize(
        "m, h, n", [(5, 1, 5), (10, 4, 3), (4, 4, 1), (1, 1, 1), (7, 2, 4)]
    )
    def test_examples(self, m, h, n):
        assert max_level(SpeciesDef("C", (Prefix("a", 1, Role.REACTANT),), m), h) == n

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**4))
    def test_unique_bracketing(self, m, h):
        n = max_level(SpeciesDef("C", (Prefix("a", 1, Role.REACTANT),), m), h)
        assert (n - 1) * h < m <= n * h


class TestExtendSpecies:
    def test_concatenates_prefixes(self):
        a = species("C1", Prefix("a", 1, Role.PRODUCT))
        b = species("C", Prefix("g", 1, Role.REACTANT))
        ext = extend_species(a, b)
        assert ext.name == "C1{C}"
        assert [p.action for p in ext.prefixes] == ["a", "g"]
        assert [p.role for p in ext.prefixes] == [Role.PRODUCT, Role.REACTANT]
        assert validate_species(ext) == []

    def test_overlap_rejected(self):
        a = species("A", Prefix("a", 1, Role.PRODUCT))
        b = species("B", Prefix("a", 2, Role.REACTANT))
        with pytest.raises(OverlappingActionsError) as err:
            extend_species(a, b)
        assert err.value.actions == frozenset({"a"})

    def test_extension_always_well_defined(self):
        a = inhibition_full().species_def("S")
        b = species("N", Prefix("z1", 1, Role.ACTIVATOR), Prefix("z2", 2, Role.PRODUCT))
        assert validate_species(extend_species(a, b)) == []
        assert validate_species(extend_species(b, a)) == []


class TestCompose:
    def test_disjoint_composition(self):
        reduced = inhibition_reduced()
        extra = SystemDef(
            (species("Z", Prefix("z", 1, Role.REACTANT), max_count=2),),
            Leaf("Z", 2),
        )
        combined = compose(reduced, extra)
        assert combined.species_order == ("S'", "E'", "I'", "P'", "Z")
        assert len(list(combined.initial_levels())) == 5
        assert validate_system(combined) == []

    def test_shared_action_synchronises(self):
        s1, _, ctx, _ = burst_systems()
        combined = compose(s1, ctx)
        assert combined.actions() == frozenset({"a", "g"})
        # shared-all root node: 'a' occurs on both sides
        assert combined.tree.coop is None

    def test_self_composition_rejected(self):
        s1, _, _, _ = burst_systems()
        with pytest.raises(InvalidModelError) as err:
            compose(s1, s1)
        assert any("repeated-species(S1)" in p for p in err.value.problems)

    def test_step_size_mismatch_rejected(self):
        s1, _, _, _ = burst_systems()
        other = SystemDef(
            (species("Y", Prefix("y", 1, Role.REACTANT), max_count=2),),
            Leaf("Y", 1),
            step_size=2,
        )
        with pytest.raises(InvalidModelError):
            compose(s1, other)


@dataclasses.dataclass(frozen=True)
class DataclassNode:
    """``Node``'s fields with the ``repr`` the dataclass decorator writes."""

    left: object
    coop: frozenset[str] | None
    right: object


def as_dataclass_node(tree):
    if isinstance(tree, Leaf):
        return tree
    return DataclassNode(as_dataclass_node(tree.left), tree.coop, as_dataclass_node(tree.right))


class TestNodeProtocols:
    @pytest.mark.parametrize("seed", range(40))
    def test_repr_is_the_dataclass_repr(self, seed):
        tree = random_system(random.Random(seed), sync_all=seed % 2 == 0).tree
        expected = repr(as_dataclass_node(tree)).replace("DataclassNode(", "Node(")
        assert repr(tree) == expected

    def test_copy_and_pickle_keep_structure(self):
        sys = inhibition_full(2, 1, 0)
        tree = Node(Leaf("A", 1), frozenset({"a", "b"}), Node(Leaf("B", 0), None, Leaf("C", 2)))
        for original in (sys, sys.tree, tree):
            for clone in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
                assert clone == original
                assert repr(clone) == repr(original)


class TestEquivConfig:
    def test_partition_must_be_disjoint(self):
        with pytest.raises(ValueError):
            EquivConfig(fast=frozenset({"g"}), slow=frozenset({"g"}))

    def test_swapped_inverts_aliases_and_delta(self):
        cfg = EquivConfig(
            fast=frozenset({"f"}),
            slow=frozenset({"s"}),
            delta=frozenset({"P"}),
            aliases={"P'": "P"},
        )
        other = swapped(cfg)
        assert other.aliases == {"P": "P'"}
        assert other.delta == frozenset({"P'"})
        assert swapped(other) == cfg
