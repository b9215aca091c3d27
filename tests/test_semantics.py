from __future__ import annotations

import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from fastslow import (
    CapabilityLabel,
    EquivConfig,
    LabelEntry,
    Leaf,
    Lts,
    Node,
    Prefix,
    Role,
    SpeciesDef,
    StateSpaceLimitError,
    SystemDef,
    UnpartitionedActionError,
    WeakViews,
    build_lts,
    classify,
    compose,
    extend_species,
    largest_fast_slow,
    lts_to_dict,
    lts_to_dot,
    max_level,
    parse_config,
    parse_model,
    stoich_matrix,
)
from fastslow import semantics
from oracles import (
    build_lts_oracle,
    fast_edges,
    filter_oracle,
    json_oracle,
    lts_from_transitions,
    step,
    step_tree_oracle,
    transitions,
    warshall_closure,
    weak_slow_oracle,
)
from randgen import (
    SCC_CONFIG,
    SCC_SHAPES,
    random_case,
    random_scc_lts,
    random_small_lts,
    random_system,
)
from systems import (
    burst_systems,
    chain,
    deep_chain,
    inhibition_config,
    inhibition_full,
    inhibition_reduced,
    left_nested_chain,
    pathway,
    right_nested_chain,
)


def entry(species, role, level, stoich=1):
    return LabelEntry(species, role, level, stoich)


def entry_key(e: LabelEntry) -> tuple:
    """The canonical entry order, spelled out with the role's spelling."""
    return (e.species, e.role.value, e.level, e.stoich)


def label_key(label: CapabilityLabel) -> tuple:
    """The canonical label order: the action, then the entries' keys."""
    return (label.action, tuple(entry_key(e) for e in label.entries))


class TestStep:
    def test_full_initial_state_single_move(self):
        sys = inhibition_full(5, 3, 0)
        moves = step(sys, (5, 3, 0, 0, 0, 0))
        assert len(moves) == 1
        label, target = moves[0]
        assert label.action == "b1"
        assert label.entries == (
            entry("E", Role.REACTANT, 3),
            entry("S", Role.REACTANT, 5),
            entry("SE", Role.PRODUCT, 0),
        )
        assert target == (4, 2, 0, 0, 0, 1)

    def test_reactant_blocked_at_zero(self):
        sys = SystemDef(
            (SpeciesDef("A", (Prefix("x", 1, Role.REACTANT),), 2),), Leaf("A", 0)
        )
        assert step(sys, (0,)) == []

    def test_reduced_initial_gamma(self):
        sys = inhibition_reduced(5, 3, 0)
        moves = step(sys, (5, 3, 0, 0))
        assert len(moves) == 1
        label, target = moves[0]
        assert label.action == "g"
        assert label.entries == (
            entry("E'", Role.ACTIVATOR, 3),
            entry("I'", Role.INHIBITOR, 0),
            entry("P'", Role.PRODUCT, 0),
            entry("S'", Role.REACTANT, 5),
        )
        assert target == (4, 3, 0, 1)

    def test_activator_blocks_at_zero_inhibitor_does_not(self):
        sys = inhibition_reduced(5, 0, 0)
        # enzyme at level zero: activator side condition fails, no moves
        assert step(sys, (5, 0, 0, 0)) == []
        sys2 = inhibition_reduced(5, 3, 0)
        # inhibitor at level zero does not block (see gamma move above)
        assert len(step(sys2, (5, 3, 0, 0))) == 1


class TestBuildLts:
    def test_full_system_figure_counts(self):
        lts = build_lts(inhibition_full(5, 3, 0))
        assert lts.n_states == 18
        assert lts.n_transitions == 36
        by_action = {}
        for t in transitions(lts):
            by_action[t.label.action] = by_action.get(t.label.action, 0) + 1
        assert by_action == {"b1": 12, "bm1": 12, "g": 12}

    def test_repeated_state_is_refused_when_looked_up(self):
        # the state index is built by the first lookup, not by the constructor
        lts = lts_from_transitions(("A",), ((0,), (1,), (0,)), 0, [])
        assert lts.n_states == 3
        with pytest.raises(ValueError, match="^duplicate states in transition system$"):
            lts.index_of((1,))

    def test_reduced_system_chain(self):
        lts = build_lts(inhibition_reduced(5, 3, 0))
        assert lts.n_states == 6
        assert lts.n_transitions == 5
        assert all(t.label.action == "g" for t in transitions(lts))
        expected = [(5 - k, 3, 0, k) for k in range(6)]
        assert list(lts.states) == expected
        assert [(t.src, t.dst) for t in transitions(lts)] == [
            (k, k + 1) for k in range(5)
        ]

    def test_deterministic(self):
        a = build_lts(inhibition_full(3, 2, 2))
        b = build_lts(inhibition_full(3, 2, 2))
        assert a == b

    def test_state_cap(self):
        with pytest.raises(StateSpaceLimitError) as err:
            build_lts(inhibition_full(5, 3, 0), max_states=5)
        assert err.value.limit == 5

    def test_deep_chain_hits_state_cap(self):
        # a right-nested shared-all chain X0 <*> (X1 <*> (... <*> X1499))
        # passing tokens down with t_i: X_i -> X_(i+1)
        n = 1500
        species = tuple(
            SpeciesDef(
                f"X{i}",
                tuple(
                    ([Prefix(f"t{i}", 1, Role.REACTANT)] if i < n - 1 else [])
                    + ([Prefix(f"t{i - 1}", 1, Role.PRODUCT)] if i else [])
                ),
                3,
            )
            for i in range(n)
        )
        tree = Leaf(f"X{n - 1}", 0)
        for i in reversed(range(n - 1)):
            tree = Node(Leaf(f"X{i}", 1), None, tree)
        with pytest.raises(StateSpaceLimitError) as err:
            build_lts(SystemDef(species, tree), max_states=10)
        assert err.value.limit == 10

    def test_label_entries_are_interned(self):
        # one entry object per (row, participant, level) that occurs; a
        # row is an action with its participants' names
        lts = build_lts(inhibition_full(60, 6, 3))
        entries = {id(e) for t in transitions(lts) for e in t.label.entries}
        triples = {
            (t.label.action, tuple(e.species for e in t.label.entries), e.species, e.level)
            for t in transitions(lts)
            for e in t.label.entries
        }
        assert len(entries) <= len(triples)

    def test_huge_maximum_allocates_nothing_per_level(self):
        sys = parse_model(
            "max A = 1000000000000;\n"
            "species A = (up,1) >> A;\n"
            "system = A[999999999999];\n"
        )
        tracemalloc.start()
        try:
            lts = build_lts(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lts.states == ((999999999999,), (1000000000000,))
        assert lts.n_transitions == 1
        assert peak < 5 * 2**20

    def test_level_delta_soundness_sample(self):
        sys = inhibition_full(3, 2, 2)
        lts = build_lts(sys)
        for t in transitions(lts):
            deltas = {e.species: e.role.level_delta(e.stoich) for e in t.label.entries}
            for name, before, after in zip(
                lts.species_order, lts.states[t.src], lts.states[t.dst]
            ):
                assert after - before == deltas.get(name, 0)

    def test_levels_stay_in_bounds(self):
        sys = inhibition_full(3, 2, 2)
        lts = build_lts(sys)
        limits = [
            max_level(sys.species_def(name), sys.step_size) for name in lts.species_order
        ]
        for state in lts.states:
            assert all(0 <= lvl <= cap for lvl, cap in zip(state, limits))

    def test_shared_all_composition_associative_on_lts(self):
        def tiny(name, action, level):
            return SystemDef(
                (
                    SpeciesDef(
                        name,
                        (Prefix(action, 1, Role.REACTANT), Prefix("c", 1, Role.PRODUCT)),
                        2,
                    ),
                ),
                Leaf(name, level),
            )

        p, q, r = tiny("A", "x", 2), tiny("B", "y", 1), tiny("C", "z", 1)
        left = build_lts(compose(compose(p, q), r))
        right = build_lts(compose(p, compose(q, r)))
        assert left.states == right.states
        assert transitions(left) == transitions(right)


def fixture_models(fixtures) -> list[SystemDef]:
    paths = sorted(p for p in fixtures.glob("*.bp") if p.name != "broken.bp")
    assert len(paths) == 9
    return [parse_model(path.read_text()) for path in paths]


class TestStepAgainstTreeOracle:
    """The compiled reaction-instance table against the recursive walk of
    the cooperation tree, state by state, and the label order pinned by
    ``entry_key`` and ``label_key``."""

    @staticmethod
    def assert_agrees(sys: SystemDef) -> None:
        lts = build_lts(sys)
        levels = sys.initial_levels()
        assert lts.states[0] == tuple(levels[name] for name in sys.species_order)
        for i, state in enumerate(lts.states):
            expected = step_tree_oracle(sys, state)
            got = step(sys, state)
            assert len(got) == len(expected)
            assert set(got) == set(expected)
            for label, _ in got:
                assert list(label.entries) == sorted(label.entries, key=entry_key)
            keys = [label_key(label) for label, _ in got]
            assert keys == sorted(keys)
            # the build keeps each state's moves in the order a step yields them
            lo, hi = lts.starts[i], lts.starts[i + 1]
            assert [(label, lts.states[t]) for label, t in zip(lts.labels[lo:hi], lts.targets[lo:hi])] == got
        keys = [(t.src, label_key(t.label), t.dst) for t in transitions(lts)]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("sync_all", [True, False])
    def test_random_systems(self, sync_all):
        split = 0
        for case in range(300):
            rng = random.Random(f"step-oracle:{sync_all}:{case}")
            sys = random_system(rng, sync_all=sync_all)
            self.assert_agrees(sys)
            m = stoich_matrix(sys)
            split += len(m.actions) > len(set(m.actions))
        if sync_all:
            assert split == 0  # shared-all: one instance per action
        else:
            assert split > 20  # explicit cooperation sets split some actions

    def test_pathway(self):
        self.assert_agrees(pathway(3, 3)[0])

    def test_inhibition(self):
        self.assert_agrees(inhibition_full(20, 3, 1))

    def test_burst_fixtures(self, fixtures):
        s1, s2, ctx, _ = burst_systems()
        for sys in (s1, s2, ctx, compose(s1, ctx), compose(s2, ctx)):
            self.assert_agrees(sys)
        for name in ("burst_a.bp", "burst_b.bp", "drain_ctx.bp", "explicit_coop.bp"):
            self.assert_agrees(parse_model((fixtures / name).read_text()))

    def test_every_fixture_model(self, fixtures):
        for sys in fixture_models(fixtures):
            self.assert_agrees(sys)


class TestBuildAgainstOracle:
    """``build_lts`` against a breadth-first search over the tree oracle
    that sorts each state's targets and labels itself: equal states,
    numbering and transitions."""

    @staticmethod
    def assert_same(sys: SystemDef) -> None:
        lts, expected = build_lts(sys), build_lts_oracle(sys)
        assert lts.species_order == expected.species_order
        assert lts.states == expected.states
        assert transitions(lts) == transitions(expected)
        assert lts == expected

    @pytest.mark.parametrize("sync_all", [True, False])
    def test_random_systems(self, sync_all):
        for case in range(300):
            rng = random.Random(f"build-oracle:{sync_all}:{case}")
            self.assert_same(random_system(rng, sync_all=sync_all))

    def test_pathway(self):
        self.assert_same(pathway(3, 3)[0])

    def test_inhibition(self):
        self.assert_same(inhibition_full(20, 3, 1))
        self.assert_same(inhibition_reduced(20, 3, 1))

    def test_every_fixture_model(self, fixtures):
        for sys in fixture_models(fixtures):
            self.assert_same(sys)


def layout_cases(fixtures):
    """Transition systems built from the seeded random suites and the
    fixtures, and hand-built ones of every SCC shape."""
    for sync_all in (True, False):
        for case in range(100):
            _, a, _, b, _ = random_case(case, seed="layout", sync_all=sync_all)
            yield a
            yield b
    for sys in fixture_models(fixtures):
        yield build_lts(sys)
    rng = random.Random("layout")
    for shape in SCC_SHAPES:
        yield random_scc_lts(rng, shape)


class TestColumnarLayout:
    """State ``s``'s transitions are the slice ``starts[s]:starts[s + 1]``
    of the label and target columns, which ``oracles.transitions`` lists
    as tuples."""

    def test_starts_bound_one_slice_per_state(self, fixtures):
        for lts in layout_cases(fixtures):
            starts = lts.starts
            assert len(starts) == lts.n_states + 1
            assert starts[0] == 0 and starts[-1] == lts.n_transitions
            assert all(lo <= hi for lo, hi in zip(starts, starts[1:]))
            assert len(lts.labels) == len(lts.targets) == lts.n_transitions
            assert all(0 <= t < lts.n_states for t in lts.targets)

    def test_rebuilt_from_its_transitions(self, fixtures):
        for lts in layout_cases(fixtures):
            view = transitions(lts)
            assert [t.src for t in view] == sorted(t.src for t in view)
            rebuilt = lts_from_transitions(lts.species_order, lts.states, lts.initial, view)
            assert rebuilt == lts
            assert transitions(rebuilt) == view

    @pytest.mark.parametrize(
        "columns",
        [((0, 1), (), ()), ((0, 0, 1), (), ()), ((1, 1, 1), (), ()), ((0, 0, 1), (None,), ())],
    )
    def test_columns_that_do_not_fit_the_states(self, columns):
        with pytest.raises(ValueError, match="^transition columns do not match the states$"):
            Lts(("A",), ((0,), (1,)), 0, *columns)

    def test_fast_step_actions_against_every_transition(self):
        for case in range(100):
            _, a, _, _, cfg = random_case(case, seed="fast-step-actions")
            try:
                views = WeakViews(a, cfg)
            except UnpartitionedActionError:
                continue
            moves = transitions(a)
            for s in range(a.n_states):
                for d in range(a.n_states):
                    expected = {t.label.action for t in moves if (t.src, t.dst) == (s, d)}
                    assert views.fast_step_actions(s, d) == tuple(sorted(expected & cfg.fast))

    def test_tracked_objects_grow_with_labels_not_transitions(self):
        # three independent species: a label names one species' level, so
        # 1,331 states share 60 labels among 7,260 transitions
        text = "".join(
            f"max {s} = 10;\nspecies {s} = (u{s},1) >> {s} + (d{s},1) << {s};\n" for s in "ABC"
        )
        model = parse_model(text + "system = A[5] <*> B[5] <*> C[5];\n")
        build_lts(model)
        gc.collect()
        before = len(gc.get_objects())
        lts = build_lts(model)
        gc.collect()
        added = len(gc.get_objects()) - before
        labels = len({id(label) for label in lts.labels})
        assert (lts.n_states, labels, lts.n_transitions) == (1331, 60, 7260)
        bound = lts.n_states + 4 * labels
        assert lts.n_transitions > 4 * bound
        assert added <= bound


class TestGeneratedStep:
    """``_Compiled.moves`` is Python source generated from the table: no
    name a model chooses reaches that source, guards leave out the level
    bounds every state meets, and a table that is only read for its
    stoichiometry generates nothing."""

    def test_names_of_the_generated_identifiers(self):
        sys = parse_model(
            "max state = 2;\nmax out = 2;\nmax t = 1;\nmax x0 = 2;\nmax k = 1;\nmax lab = 2;\n"
            "species state = (out,1) << state + (t,1) >> state;\n"
            "species out = (out,1) >> out + (k,1) << out + (lab,1) (+) out;\n"
            "species t = (t,1) << t + (state,1) >> t;\n"
            "species x0 = (x0,1) >> x0 + (state,1) << x0 + (k,1) (-) x0;\n"
            "species k = (k,1) >> k + (lab,1) << k;\n"
            "species lab = (lab,2) >> lab + (x0,1) << lab + (t,1) (.) lab;\n"
            "system = state[2] <*> out[0] <*> t[1] <*> x0[1] <*> k[0] <*> lab[2];\n"
        )
        lts = build_lts(sys)
        assert {label.action for label in lts.labels} == {"state", "out", "t", "x0", "k", "lab"}
        assert lts.n_states > 100
        TestBuildAgainstOracle.assert_same(sys)

    def test_names_that_are_not_identifiers(self):
        # the model language allows none of these, but a hand-built model can
        odd = ['a"b', "c\nd)", "e%s{", "x0 = 1"]
        species = tuple(
            SpeciesDef(name, (Prefix(odd[i - 1], 1, Role.REACTANT), Prefix(odd[i], 1, Role.PRODUCT)), 2)
            for i, name in enumerate(odd)
        )
        sys = SystemDef(species, chain(*(Leaf(name, 1) for name in odd)))
        assert build_lts(sys).n_transitions > 0
        TestBuildAgainstOracle.assert_same(sys)
        # the names reach the function through its namespace, never as literals
        consts = semantics._Compiled(sys).moves.__code__.co_consts
        assert all(c is None or type(c) is int for c in consts)

    def test_a_row_with_no_bound_to_test_fires_at_every_state(self):
        # h's participants are an inhibitor and a generic modifier, which
        # take part at every level, so its row compares nothing
        sys = parse_model(
            "max A = 3;\nmax B = 2;\nmax C = 2;\n"
            "species A = (h,1) (-) A + (g,1) >> A;\n"
            "species B = (h,1) (.) B + (g,2) << B + (f,1) >> B;\n"
            "species C = (g,1) (+) C + (f,1) << C;\n"
            "system = A[0] <*> B[2] <*> C[2];\n"
        )
        lts = build_lts(sys)
        assert sum(t.label.action == "h" for t in transitions(lts)) == lts.n_states
        TestBuildAgainstOracle.assert_same(sys)
        TestStepAgainstTreeOracle.assert_agrees(sys)

    def test_step_takes_only_states_of_the_model(self):
        sys = inhibition_full(5, 3, 1)
        assert len(step(sys, [5, 3, 1, 0, 0, 0])) == 2
        for state in [(6, 3, 1, 0, 0, 0), (5, -1, 1, 0, 0, 0), (5, 3, 1, 0, 0)]:
            with pytest.raises(ValueError, match="is not a state of this model"):
                step(sys, state)

    @pytest.mark.parametrize("part_rows", [1, 2, 3])
    def test_a_table_compiled_in_parts_steps_as_one(self, monkeypatch, part_rows):
        # each part is a function of its own; the moves of all parts, in
        # order, are the moves of the whole table
        monkeypatch.setattr(semantics, "_PART_ROWS", part_rows)
        for sys in (inhibition_full(5, 3, 1), pathway(3, 3)[0]):
            assert len(semantics._Compiled(sys).rows) > part_rows
            TestBuildAgainstOracle.assert_same(sys)
            TestStepAgainstTreeOracle.assert_agrees(sys)
        for case in range(20):
            rng = random.Random(f"parts:{part_rows}:{case}")
            TestBuildAgainstOracle.assert_same(random_system(rng, sync_all=False))

    def test_a_wide_table_is_compiled_in_parts(self):
        # 3,000 rows, three parts; every reactant is at level 0, so nothing fires
        species = tuple(SpeciesDef(f"S{i}", (Prefix(f"a{i}", 1, Role.REACTANT),), 1) for i in range(3000))
        sys = SystemDef(species, chain(*(Leaf(f"S{i}", 0) for i in range(3000))))
        assert semantics._PART_ROWS < 3000
        lts = build_lts(sys)
        assert (lts.n_states, lts.n_transitions) == (1, 0)

    def test_stoichiometry_alone_generates_nothing(self, monkeypatch):
        def generate(*args):
            raise AssertionError("a step function was generated")

        monkeypatch.setattr(semantics, "_generate", generate)
        sys, cfg = pathway(4, 1)
        assert len(stoich_matrix(sys).actions) == 12
        classify(sys, cfg)
        with pytest.raises(AssertionError):
            build_lts(sys)


def filter_label(label: CapabilityLabel, cfg: EquivConfig) -> CapabilityLabel:
    """``label`` filtered the package's one way, by a fresh cache."""
    return semantics._Filtered(cfg)[label]


class TestFilterLabel:
    CFG = inhibition_config()

    def test_keeps_only_delta(self):
        label = CapabilityLabel(
            "g",
            (
                entry("E", Role.PRODUCT, 1),
                entry("P", Role.PRODUCT, 1, 2),
                entry("SE", Role.REACTANT, 1),
            ),
        )
        out = filter_label(label, self.CFG)
        assert out.action == "g"
        assert out.entries == (entry("P", Role.PRODUCT, 1, 2),)

    def test_alias_renames(self):
        label = CapabilityLabel("g", (entry("P'", Role.PRODUCT, 4),))
        assert filter_label(label, self.CFG).entries == (entry("P", Role.PRODUCT, 4),)

    def test_alias_merges_and_reorders(self):
        cfg = EquivConfig(frozenset(), frozenset({"g"}), frozenset({"A"}), {"B": "A"})
        # B:<<(2,1) becomes a second A:<<(2,1), kept once
        merged = CapabilityLabel(
            "g", (entry("A", Role.REACTANT, 2), entry("B", Role.REACTANT, 2))
        )
        assert filter_label(merged, cfg).entries == (entry("A", Role.REACTANT, 2),)
        # the renamed entry sorts before A:>> by role spelling, "<<" < ">>"
        moved = CapabilityLabel(
            "g", (entry("A", Role.PRODUCT, 0), entry("B", Role.REACTANT, 3))
        )
        assert filter_label(moved, cfg).entries == (
            entry("A", Role.REACTANT, 3),
            entry("A", Role.PRODUCT, 0),
        )

    def test_full_delta_identity(self):
        cfg = EquivConfig(
            fast=frozenset(), slow=frozenset({"g"}), delta=frozenset({"P", "SE", "E"})
        )
        label = CapabilityLabel(
            "g", (entry("P", Role.PRODUCT, 1), entry("SE", Role.REACTANT, 1))
        )
        assert filter_label(label, cfg) == label

    @given(st.data())
    def test_concatenation_homomorphism(self, data):
        species = ["A", "B", "C", "D", "E", "F"]
        roles = list(Role)
        entries = data.draw(
            st.lists(
                st.builds(
                    LabelEntry,
                    st.sampled_from(species),
                    st.sampled_from(roles),
                    st.integers(min_value=0, max_value=5),
                    st.integers(min_value=1, max_value=3),
                ),
                max_size=6,
            )
        )
        split = data.draw(st.integers(min_value=0, max_value=len(entries)))
        w1, w2 = set(entries[:split]), set(entries[split:])
        delta = frozenset(data.draw(st.sets(st.sampled_from(species + ["Z"]))))
        aliases = {"B": "A"} if data.draw(st.booleans()) else {}
        cfg = EquivConfig(frozenset(), frozenset({"g"}), delta, aliases)
        whole = filter_label(CapabilityLabel("g", tuple(sorted(w1 | w2))), cfg)
        left = filter_label(CapabilityLabel("g", tuple(sorted(w1))), cfg)
        right = filter_label(CapabilityLabel("g", tuple(sorted(w2))), cfg)
        assert set(whole.entries) == set(left.entries) | set(right.entries)
        # renaming B to A can reorder entries and merge two into one
        assert list(whole.entries) == sorted(set(whole.entries), key=entry_key)
        assert whole == filter_oracle(CapabilityLabel("g", tuple(sorted(w1 | w2))), cfg)

    def test_one_object_per_filtered_label(self):
        lts = build_lts(inhibition_full(20, 5, 2))
        cfg = inhibition_config()
        filtered = semantics._Filtered(cfg)
        made = {}
        for label in lts.labels:
            out = filtered[label]
            assert out == filter_oracle(label, cfg)
            assert made.setdefault(out, out) is out
        assert len(made) < len(set(lts.labels))


class TestWeakViews:
    def test_reflexive(self):
        lts = build_lts(inhibition_full(3, 2, 2))
        views = WeakViews(lts, inhibition_config())
        for i in range(lts.n_states):
            assert i in views.fast_closure(i)

    def test_initial_weak_gamma_targets(self):
        lts = build_lts(inhibition_full(5, 3, 0))
        views = WeakViews(lts, inhibition_config())
        i0 = lts.index_of((5, 3, 0, 0, 0, 0))
        label = CapabilityLabel("g", (entry("P", Role.PRODUCT, 0),))
        targets = views.weak_slow_targets(i0, label)
        expected = {
            lts.index_of(s)
            for s in [(4, 3, 0, 1, 0, 0), (3, 2, 0, 1, 0, 1), (2, 1, 0, 1, 0, 2), (1, 0, 0, 1, 0, 3)]
        }
        assert targets == expected

    def test_all_enzyme_bound_chain(self):
        # with all enzyme bound to the inhibitor, the product step still
        # goes through weakly: unbind, bind substrate, then the slow step
        n, m, p = 3, 1, 2
        lts = build_lts(inhibition_full(n, m, p))
        views = WeakViews(lts, inhibition_config())
        blocked = lts.index_of((3, 0, 1, 0, 1, 0))  # S,E,I,P,EI,SE with EI = m
        label = CapabilityLabel("g", (entry("P", Role.PRODUCT, 0),))
        targets = views.weak_slow_targets(blocked, label)
        landed = lts.index_of((2, 1, 2, 1, 0, 0))  # one product made, EI unbound
        assert landed in targets

    def test_fast_step_actions_on_inhibition_fixture(self, fixtures):
        lts = build_lts(parse_model((fixtures / "inhibition_full.bp").read_text()))
        cfg = parse_config((fixtures / "inhibition.cfg").read_text())
        views = WeakViews(lts, cfg)
        start = lts.index_of((5, 3, 0, 0, 0, 0))
        bound = lts.index_of((4, 2, 0, 0, 0, 1))  # one S bound to E as SE
        made = lts.index_of((4, 3, 0, 1, 0, 0))  # SE turned into P by g
        assert views.fast_steps(start) == (bound,)
        assert views.fast_step_actions(start, bound) == ("b1",)
        assert views.fast_step_actions(bound, start) == ("bm1",)
        assert views.fast_step_actions(bound, made) == ()  # g is slow
        assert views.fast_step_actions(start, made) == ()  # no step at all
        fast = [t for t in transitions(lts) if t.label.action in cfg.fast]
        assert {t.label.action for t in fast} == {"b1", "bm1"}
        for t in fast:
            assert views.fast_step_actions(t.src, t.dst) == (t.label.action,)
        edges = sum(len(views.fast_steps(s)) for s in range(lts.n_states))
        assert edges == len(fast)

    def test_unpartitioned_action_rejected(self):
        lts = build_lts(inhibition_full(2, 1, 0))
        cfg = EquivConfig(fast=frozenset({"b1"}), slow=frozenset({"g"}))
        with pytest.raises(Exception) as err:
            WeakViews(lts, cfg)
        assert "unpartitioned-action" in str(err.value)
        # z fires first (0 -> 1) and m only from level 1, but the error
        # names the alphabetically first action that no set holds
        two = parse_model(
            "max A = 1;\nspecies A = (m,1) << A + (z,1) >> A;\nsystem = A[0];\n"
        )
        lts = build_lts(two)
        assert [t.label.action for t in transitions(lts)] == ["z", "m"]
        with pytest.raises(UnpartitionedActionError) as err:
            WeakViews(lts, EquivConfig(fast=frozenset(), slow=frozenset()))
        assert err.value.action == "m"

    def test_closure_and_weak_moves_match_oracle(self):
        # explicit (partial) cooperation sets included: the view relations
        # are tree-agnostic even where classification would not be
        for case in range(40):
            _, lts = random_small_lts(f"views:{case}", sync_all=False)
            actions = sorted({t.label.action for t in transitions(lts)})
            rng = random.Random(f"views-cfg:{case}")
            fast = frozenset(a for a in actions if rng.random() < 0.5)
            cfg = EquivConfig(
                fast=fast,
                slow=frozenset(actions) - fast,
                delta=frozenset(lts.species_order[:1]),
            )
            self.match_oracles(lts, cfg)

    @staticmethod
    def match_oracles(lts, cfg):
        views = WeakViews(lts, cfg)
        closure = warshall_closure(lts.n_states, fast_edges(lts, cfg))
        for i in range(lts.n_states):
            assert views.fast_closure(i) == frozenset(closure[i])
        oracle = weak_slow_oracle(lts, cfg)
        moves = {
            (i, w.action, w): set(ts)
            for i in range(lts.n_states)
            for w, ts in views.weak_slow_moves(i).items()
        }
        assert moves == oracle

    @pytest.mark.parametrize("shape", SCC_SHAPES)
    def test_large_fast_sccs_match_oracle(self, shape):
        for case in range(40):
            self.match_oracles(random_scc_lts(random.Random(f"views:{shape}:{case}"), shape), SCC_CONFIG)

    def test_members_of_an_scc_share_their_views(self):
        # two states share an SCC exactly when each reaches the other by
        # fast steps, and then they get the same closure and weak moves
        systems = [(lts, cfg) for _, lts, _, _, cfg in map(random_case, range(100))]
        systems += [
            (random_scc_lts(random.Random(f"share:{shape}:{case}"), shape), SCC_CONFIG)
            for shape in SCC_SHAPES
            for case in range(25)
        ]
        for lts, cfg in systems:
            views = WeakViews(lts, cfg)
            closure = warshall_closure(lts.n_states, fast_edges(lts, cfg))
            for i in range(lts.n_states):
                for j in range(lts.n_states):
                    same = i in closure[j] and j in closure[i]
                    assert (views.scc[i] == views.scc[j]) == same
                    assert (views.fast_closure(i) is views.fast_closure(j)) == same
                    if same:
                        assert views.weak_slow_moves(i) is views.weak_slow_moves(j)

    def test_deep_fast_chain_needs_no_recursion(self):
        # 20,000 levels joined by reversible fast steps: one SCC, which a
        # recursive depth-first search would enter 20,000 calls deep
        spec = SpeciesDef(
            "A", (Prefix("up", 1, Role.PRODUCT), Prefix("down", 1, Role.REACTANT)), 19_999
        )
        lts = build_lts(SystemDef((spec,), Leaf("A", 0)))
        assert lts.n_states == 20_000
        cfg = EquivConfig(fast=frozenset({"up", "down"}), slow=frozenset())
        views = WeakViews(lts, cfg)
        assert len(views.members) == 1
        assert views.fast_closure(0) is views.fast_closure(19_999)
        assert views.fast_closure(0) == frozenset(range(20_000))

    def test_long_irreversible_fast_chain_builds_one_closure(self):
        # 3,001 levels joined by one-way fast steps: 3,001 singleton SCCs
        # in a path, whose closures built up front would take 200 MB
        spec = SpeciesDef("A", (Prefix("up", 1, Role.PRODUCT),), 3000)
        lts = build_lts(SystemDef((spec,), Leaf("A", 0)))
        cfg = EquivConfig(fast=frozenset({"up"}), slow=frozenset())
        tracemalloc.start()
        try:
            closure = WeakViews(lts, cfg).fast_closure(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert closure == frozenset(range(3001))
        assert peak < 20 * 2**20

    def test_two_rows_giving_one_filtered_move_keep_it_once(self):
        # r fires as A with X or as B with X; the activators are filtered
        # out, so both rows give the move (r, {X:>>(0,1)}) to one state
        lts = build_lts(
            parse_model(
                "max A = 1;\nmax B = 1;\nmax X = 1;\n"
                "species A = (r,1) (+) A;\nspecies B = (r,1) (+) B;\n"
                "species X = (r,1) >> X + (s,1) >> X;\n"
                "system = (A[1] <> B[1]) <r> X[0];\n"
            )
        )
        cfg = parse_config("slow: r, s\ndelta: X\n")
        moves = [(filter_oracle(t.label, cfg), t.dst) for t in transitions(lts) if t.src == 0]
        assert [label.action for label, _ in moves] == ["r", "r", "s"]
        assert moves[0] == moves[1]
        assert WeakViews(lts, cfg).slow_strong(0) == (moves[0], moves[2])


class TestExtensionIsomorphism:
    def test_extend_both_ways_isomorphic(self):
        a = SpeciesDef("A", (Prefix("up", 1, Role.PRODUCT),), 3)
        b = SpeciesDef("B", (Prefix("down", 1, Role.REACTANT),), 3)
        ab = extend_species(a, b)
        ba = extend_species(b, a)
        sys_ab = SystemDef((ab,), Leaf(ab.name, 1))
        sys_ba = SystemDef((ba,), Leaf(ba.name, 1))
        lts_ab, lts_ba = build_lts(sys_ab), build_lts(sys_ba)
        assert lts_ab.n_states == lts_ba.n_states
        assert lts_ab.n_transitions == lts_ba.n_transitions
        cfg = EquivConfig(
            fast=frozenset(),
            slow=frozenset({"up", "down"}),
            delta=frozenset({ab.name}),
            aliases={ba.name: ab.name},
        )
        _, outcome = largest_fast_slow(lts_ab, lts_ba, cfg)
        assert outcome.equivalent


class TestDeepTreesCompile:
    """The reaction tables of trees 3,000 levels deep, three times the
    default recursion limit.  Their transition systems and stoichiometry
    matrices grow with the square of the depth, so only the rows are read."""

    @staticmethod
    def participants(sys: SystemDef) -> list[tuple[str, tuple[str, ...]]]:
        rows = semantics._Compiled(sys).rows
        return sorted((row.action, tuple(e.species for e in row.entries)) for row in rows)

    @pytest.mark.parametrize("nested", [right_nested_chain, left_nested_chain])
    def test_shared_all_chain(self, nested):
        # S{i} alone offers a{i}, so each action is one row of one species
        expected = [(f"a{i}", (f"S{i}",)) for i in range(3000)]
        assert self.participants(nested(3000)) == sorted(expected)

    def test_explicit_cooperation_chain(self):
        # s{i} synchronises X{i} with X{i+1}; the last one is X2999's alone
        expected = [(f"s{i}", tuple(sorted((f"X{i}", f"X{i + 1}")))) for i in range(2999)]
        expected.append(("s2999", ("X2999",)))
        assert self.participants(SystemDef(*deep_chain(3000, missing=None))) == sorted(expected)


class TestExports:
    def test_json_document_shape(self):
        lts = build_lts(inhibition_reduced(2, 1, 0))
        doc = lts_to_dict(lts)
        assert list(doc.keys()) == ["species", "states", "initial", "transitions"]
        assert doc["species"] == ["S'", "E'", "I'", "P'"]
        assert doc["states"][0] == [2, 1, 0, 0]
        first = doc["transitions"][0]
        assert list(first.keys()) == ["src", "action", "entries", "dst"]
        assert [e["species"] for e in first["entries"]] == ["E'", "I'", "P'", "S'"]
        # deterministic serialisation
        assert json.dumps(doc) == json.dumps(lts_to_dict(build_lts(inhibition_reduced(2, 1, 0))))
        assert doc == json_oracle(lts)

    def test_dot_output(self):
        lts = build_lts(inhibition_reduced(2, 1, 0))
        plain = lts_to_dot(lts)
        assert 'label="(2,1,0,0)"' in plain and "peripheries=2" in plain
        assert '[label="g"]' in plain
        annotated = lts_to_dot(lts, inhibition_config())
        assert 'label="g; {P:>>(0,1)}"' in annotated

    def test_burst_composition_behaviour(self):
        # the shared-fast composition performs one burst, one slow drain,
        # then deadlocks; the disjoint composition can drain repeatedly
        s1, s2, ctx, cfg = burst_systems()
        lts_shared = build_lts(compose(s1, ctx))
        assert list(lts_shared.states) == [(0, 1), (2, 0), (0, 0)]
        assert [(t.src, t.label.action, t.dst) for t in transitions(lts_shared)] == [
            (0, "a", 1),
            (1, "g", 2),
        ]
        lts_free = build_lts(compose(s2, ctx))
        gammas = [t for t in transitions(lts_free) if t.label.action == "g"]
        assert len(gammas) >= 2  # repeatable drain
