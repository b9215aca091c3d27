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
)
from fastslow import parse_model
from fastslow.model import CompositionTree, fold, preorder, tree_leaves
from oracles import dangling_coop_oracle, swapped
from randgen import random_system
from systems import burst_systems, deep_chain, inhibition_full, inhibition_reduced

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


def report(make, *args, **kwargs) -> list[str]:
    """The problems ``make(*args, **kwargs)`` raises while it constructs a
    ``SystemDef``, in order; empty when the model it makes is valid."""
    try:
        make(*args, **kwargs)
    except InvalidModelError as err:
        return err.problems
    return []


class TestValidateSystem:
    def test_inhibition_system_valid(self):
        assert report(dataclasses.replace, inhibition_full()) == []
        assert report(dataclasses.replace, inhibition_reduced()) == []

    def test_repeated_species_leaf(self):
        s = species("S", Prefix("a", 1, Role.REACTANT), max_count=5)
        found = report(SystemDef, (s,), Node(Leaf("S", 0), None, Leaf("S", 1)))
        assert any(p.startswith("repeated-species(S)") for p in found)

    def test_level_out_of_range(self):
        s = species("S", Prefix("a", 1, Role.REACTANT), max_count=5)
        assert any(
            p.startswith("level-out-of-range(S)") for p in report(SystemDef, (s,), Leaf("S", 6))
        )

    def test_last_repeated_definition_decides_the_level_check(self):
        # the level is checked only against a valid definition
        good = species("S", Prefix("a", 1, Role.REACTANT), max_count=5)
        empty = species("S")
        assert report(SystemDef, (empty, good), Leaf("S", 6)) == [
            "empty-definition(S)",
            "repeated-species(S)",
            "level-out-of-range(S): initial 6 not in 0..5",
        ]
        assert report(SystemDef, (good, empty), Leaf("S", 6)) == [
            "repeated-species(S)",
            "empty-definition(S)",
        ]

    def test_dangling_coop_action(self):
        a = species("A", Prefix("x", 1, Role.REACTANT))
        b = species("B", Prefix("y", 1, Role.PRODUCT))
        tree = Node(Leaf("A", 1), frozenset({"x"}), Leaf("B", 0))
        assert any(
            p.startswith("dangling-coop-action(x)") for p in report(SystemDef, (a, b), tree)
        )

    def test_unknown_and_unused_species(self):
        a = species("A", Prefix("x", 1, Role.REACTANT))
        b = species("B", Prefix("y", 1, Role.PRODUCT))
        found = report(SystemDef, (a, b), Leaf("A", 1))
        assert any(p.startswith("unused-species(B)") for p in found)
        found = report(SystemDef, (a,), Leaf("Z", 0))
        assert any(p.startswith("unknown-species(Z)") for p in found)

    def test_each_problem_names_its_subject(self):
        # the defined species a problem is about, or None for the model
        a = species("A", Prefix("x", 1, Role.REACTANT))
        b = species("B", Prefix("y", 1, Role.PRODUCT), max_count=0)
        tree = Node(Leaf("Z", 0), frozenset({"x"}), Node(Leaf("A", 9), None, Leaf("A", 0)))
        with pytest.raises(InvalidModelError) as err:
            SystemDef((a, b), tree, step_size=0)
        assert list(zip(err.value.subjects, err.value.problems)) == [
            (None, "invalid-step-size: 0 < 1"),
            ("B", "invalid-max-count(B): 0 < 1"),
            (None, "unknown-species(Z)"),
            ("A", "repeated-species(A)"),
            ("B", "unused-species(B)"),
            (None, "dangling-coop-action(x)"),
        ]

    def test_replace_into_an_invalid_model_raises(self):
        sys = inhibition_full()
        with pytest.raises(InvalidModelError) as err:
            dataclasses.replace(sys, tree=Node(sys.tree, None, Leaf("S", 0)))
        assert err.value.problems == ["repeated-species(S)"]
        with pytest.raises(InvalidModelError) as err:
            dataclasses.replace(sys, step_size=0)
        assert err.value.problems == ["invalid-step-size: 0 < 1"]

    def test_valid_model_survives_copy_and_pickle(self):
        for sys in (inhibition_full(), SystemDef(*deep_chain(3000, missing=None))):
            for copied in (copy.copy(sys), copy.deepcopy(sys), pickle.loads(pickle.dumps(sys))):
                assert copied == sys


def with_extra_coop(sys: SystemDef, rng: random.Random) -> CompositionTree:
    """``sys``'s tree with an action added to every cooperation set: one of
    its own, which may be missing on a side, or one no species offers."""
    pool = sorted(sys.actions()) + ["zz"]

    def walk(tree):
        if isinstance(tree, Leaf):
            return tree
        coop = (tree.coop or frozenset()) | {rng.choice(pool)}
        return Node(walk(tree.left), coop, walk(tree.right))

    return walk(sys.tree)


class TestValidateSystemAgainstOracle:
    """The one-pass cooperation check against re-walking both subtrees at
    every node: the same problems, in the same order."""

    @staticmethod
    def agree(species, tree, step_size: int = 1) -> list[str]:
        problems = report(SystemDef, species, tree, step_size)
        dangling = dangling_coop_oracle(species, tree)
        others = [p for p in problems if not p.startswith("dangling-coop-action(")]
        assert problems == others + dangling
        return dangling

    def test_random_systems(self):
        some = several = 0
        for case in range(400):
            rng = random.Random(f"validate:{case}")
            sys = random_system(rng, sync_all=False)
            assert self.agree(sys.species, sys.tree, sys.step_size) == []
            dangling = self.agree(sys.species, with_extra_coop(sys, rng), sys.step_size)
            some += bool(dangling)
            several += len(dangling) > 1
        assert some > 200 and several > 40

    def test_every_fixture(self):
        for path in sorted(FIXTURES.glob("*.bp")):
            if path.name != "broken.bp":
                sys = parse_model(path.read_text())
                self.agree(sys.species, sys.tree, sys.step_size)

    def test_deep_chain(self):
        dangling = self.agree(*deep_chain(300))
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
        assert report(dataclasses.replace, combined) == []

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

    def test_conflicts_come_before_the_composed_models_problems(self):
        s1, _, _, _ = burst_systems()
        p = dataclasses.replace(s1, params={"k": "1"}, rates={"g": "x"})
        q = dataclasses.replace(s1, step_size=2, params={"k": "2"}, rates={"g": "y"})
        with pytest.raises(InvalidModelError) as err:
            compose(p, q)
        assert err.value.problems == [
            "step-size-mismatch: 1 != 2",
            "conflicting-param(k)",
            "conflicting-rate(g)",
            "repeated-species(S1)",
            "repeated-species(S1)",
        ]


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


def structure(obj):
    """``obj`` as nested tuples of type names and field values, with each
    set sorted, so that equal structures compare equal under any hash
    seed; a ``repr`` prints a set in its iteration order, which a pickle
    round trip can change."""
    if dataclasses.is_dataclass(obj):
        fields = dataclasses.fields(obj)
        return (type(obj).__name__, *(structure(getattr(obj, f.name)) for f in fields))
    if isinstance(obj, frozenset):
        return ("frozenset", *sorted(obj))
    if isinstance(obj, dict):
        return ("dict", *sorted((key, structure(value)) for key, value in obj.items()))
    if isinstance(obj, tuple):
        return tuple(map(structure, obj))
    return obj


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
                assert structure(clone) == structure(original)

    def test_loads_a_pickle_of_an_earlier_version(self):
        # ``pickle.dumps(tree, protocol=4)`` before ``model.preorder`` and
        # ``model.fold`` existed; pickles name ``_tree_from_preorder``
        old = (
            b'\x80\x04\x95\x8c\x00\x00\x00\x00\x00\x00\x00\x8c\x0efastslow.model\x94\x8c\x13_tree_'
            b'from_preorder\x94\x93\x94((\x8c\x01a\x94\x91\x94h\x00\x8c\x04Leaf\x94\x93\x94)'
            b'\x81\x94}\x94(\x8c\x07species\x94\x8c\x01A\x94\x8c\x05level\x94K\x01ubNh\x06)\x81'
            b'\x94}\x94(h\t\x8c\x01B\x94h\x0bK\x00ubh\x06)\x81\x94}\x94(h\t\x8c\x01C\x94h\x0bK\x02ub'
            b't\x94\x85\x94R\x94.'
        )
        tree = Node(Leaf("A", 1), frozenset({"a"}), Node(Leaf("B", 0), None, Leaf("C", 2)))
        assert structure(pickle.loads(old)) == structure(tree)


def random_tree(rng: random.Random, n: int) -> Leaf | Node:
    """A tree over leaves L0..L{n-1}, left to right, made by joining
    neighbours: mostly the first two or the last two, so that the tree
    is about n/2 deep, and otherwise a random pair.  Each node has its
    own ``coop``."""
    trees: list[Leaf | Node] = [Leaf(f"L{i}", rng.randint(0, 3)) for i in range(n)]
    while len(trees) > 1:
        ends = rng.random() < 0.9
        i = rng.choice((0, len(trees) - 2)) if ends else rng.randrange(len(trees) - 1)
        coop = None if rng.random() < 0.3 else frozenset({f"c{len(trees)}"})
        trees[i : i + 2] = [Node(trees[i], coop, trees[i + 1])]
    return trees[0]


class TestTreeWalks:
    @pytest.mark.parametrize("seed", range(30))
    def test_fold_rebuilds_the_tree(self, seed):
        rng = random.Random(f"fold:{seed}")
        n = rng.choice((1, 2, rng.randint(3, 30), rng.randint(2500, 4000)))
        tree = random_tree(rng, n)
        items = preorder(tree)
        met = []

        def node(coop, left, right):
            met.append(coop)
            return Node(left, coop, right)

        rebuilt = fold(items, lambda leaf: leaf, node)
        # the repr is written by its own walk, and each set has one member;
        # a bare bool spares pytest a diff of two long lines
        same = repr(rebuilt) == repr(tree)
        assert same
        assert met == [item for item in reversed(items) if not isinstance(item, Leaf)]
        assert len(met) == n - 1
        assert [leaf.species for leaf in tree_leaves(tree)] == [f"L{i}" for i in range(n)]

    def test_bare_leaf(self):
        leaf = Leaf("A", 2)
        assert preorder(leaf) == (leaf,)
        assert fold(preorder(leaf), lambda leaf: leaf.level, max) == 2


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
