"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest -s tests/test_acceptance.py -v`` to see them) and
asserting its runtime bound.  The randomised property suites share one
seeded pool of small models."""

from __future__ import annotations

import random
import time

import pytest

from fastslow import (
    CapabilityLabel,
    EquivConfig,
    LabelEntry,
    Role,
    WeakViews,
    build_lts,
    check_fast_slow_relation,
    check_slow_relation,
    compose,
    conserved_basis,
    congruence_probe,
    largest_fast_slow,
    largest_slow,
    shared_fast_actions,
    shortcut_check,
    slow_basis,
    stoich_matrix,
)
from fastslow.equivalence import index_pairs
from fastslow.rational import dot
from fastslow.semantics import _Filtered
from oracles import (
    fast_edges,
    stoich_column,
    strong_bisim_oracle,
    transitions,
    warshall_closure,
    weak_slow_oracle,
)
from randgen import random_case
from systems import (
    burst_systems,
    inhibition_config,
    inhibition_full,
    inhibition_reduced,
    inhibition_relation,
    inhibition_relation_transformed,
    producer_systems,
)

MODULE_STARTED = time.monotonic()
CASES = 1000
CFG = inhibition_config()
PARAMS = [(5, 3, 0), (3, 2, 2), (2, 2, 3)]


def _pass(number: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {detail}")


@pytest.fixture(scope="session")
def pool():
    return [random_case(i) for i in range(CASES)]


@pytest.fixture(scope="session")
def explicit_pool():
    """Models whose explicit cooperation sets can fire a reaction with only
    some of its participants."""
    return [random_case(i, sync_all=False) for i in range(CASES)]


def fired_column(m, label):
    """The stoichiometry column of the reaction instance behind ``label``."""
    name = label.action
    if m.actions.count(name) > 1:
        species = {e.species for e in label.entries}
        name += "[" + ",".join(s for s in m.species if s in species) + "]"
    return stoich_column(m, name)


class TestCriterion1:
    def test_transition_system_reproduction(self):
        started = time.monotonic()
        full = build_lts(inhibition_full(5, 3, 0))
        assert full.n_states == 18
        reduced = build_lts(inhibition_reduced(5, 3, 0))
        assert reduced.n_states == 6
        assert reduced.n_transitions == 5
        assert all(t.label.action == "g" for t in transitions(reduced))
        chain = [(5 - k, 3, 0, k) for k in range(6)]
        assert list(reduced.states) == chain
        assert [(t.src, t.dst) for t in transitions(reduced)] == [
            (k, k + 1) for k in range(5)
        ]
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        _pass(1, elapsed, "18-state full and 6-state chain reduced systems")


class TestCriterion2:
    def test_closed_form_relation_verifies(self):
        started = time.monotonic()
        for params in PARAMS:
            a = build_lts(inhibition_full(*params))
            b = build_lts(inhibition_reduced(*params))
            rel = index_pairs(inhibition_relation(*params), a, b)
            outcome = check_fast_slow_relation(rel, a, b, CFG)
            assert outcome.verdict == "equivalent", params
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        _pass(2, elapsed, f"closed-form relation verified at {PARAMS}")


class TestCriterion3:
    def test_largest_bisimulation_verdicts(self):
        started = time.monotonic()
        for params in PARAMS:
            a = build_lts(inhibition_full(*params))
            b = build_lts(inhibition_reduced(*params))
            rel, outcome = largest_fast_slow(a, b, CFG)
            assert outcome.equivalent, params
            closed = index_pairs(inhibition_relation(*params), a, b)
            assert closed <= rel, params
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        _pass(3, elapsed, "largest fast-slow relations contain the closed form")


class TestCriterion4:
    def test_shared_fast_action_counterexample(self):
        started = time.monotonic()
        s1, s2, ctx, cfg = burst_systems()
        _, component = largest_fast_slow(build_lts(s1), build_lts(s2), cfg)
        assert component.equivalent
        assert shared_fast_actions(s1, ctx, cfg) == frozenset({"a"})
        a = build_lts(compose(s1, ctx))
        b = build_lts(compose(s2, ctx))
        _, composed = largest_fast_slow(a, b, cfg)
        assert composed.verdict == "not-equivalent"
        assert composed.witness is not None
        text = composed.witness.describe()
        assert text and "no matching weak move" in text
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        _pass(4, elapsed, f"counterexample witnessed: {text[:60]}...")


class TestCriterion5:
    def test_extension_congruence_instance(self):
        started = time.monotonic()
        for level in range(0, 4):
            c1, c2, _, cfg = producer_systems(level)
            _, outcome = largest_fast_slow(build_lts(c1), build_lts(c2), cfg)
            assert outcome.equivalent, level
        c1, c2, ctx, cfg = producer_systems()
        probe = congruence_probe(c1, c2, ctx, cfg)
        assert probe.side_condition_ok
        assert probe.component.equivalent
        assert probe.composed.equivalent
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        _pass(5, elapsed, "producer pair equivalent at all levels and composed")


class TestCriterion6:
    def test_classification_reproduction(self):
        started = time.monotonic()
        from fastslow.rational import rank

        def span_equal(a, b):
            return rank(list(a)) == rank(list(b)) == rank(list(a) + list(b))

        m_full = stoich_matrix(inhibition_full(5, 3, 0))
        cons_full = conserved_basis(m_full)
        assert span_equal(
            cons_full, [(1, 0, 0, 1, 0, 1), (0, 1, 0, 0, 1, 1), (0, 0, 1, 0, 1, 0)]
        )
        slow_full = slow_basis(m_full, CFG, cons_full)
        assert slow_full == [(0, 0, 0, 1, 0, 0)]
        from fastslow import complete_fast

        assert complete_fast(m_full, cons_full, slow_full) == [
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1),
        ]
        m_red = stoich_matrix(inhibition_reduced(5, 3, 0))
        cons_red = conserved_basis(m_red)
        assert span_equal(cons_red, [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)])
        slow_red = slow_basis(m_red, CFG, cons_red)
        assert slow_red == [(0, 0, 0, 1)]
        assert complete_fast(m_red, cons_red, slow_red) == []
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        _pass(6, elapsed, "conserved spans, slow {P}/{P'}, fast {EI,SE}/none")


class TestCriterion7:
    def test_shortcut_pipeline(self):
        started = time.monotonic()
        result = shortcut_check(
            inhibition_full(5, 3, 0),
            inhibition_reduced(5, 3, 0),
            CFG,
            inhibition_relation_transformed(5, 3, 0),
        )
        assert result.slow_outcome.equivalent
        assert result.fastslow_outcome.equivalent
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        _pass(7, elapsed, "slow check + proposition cross-validated fast-slow")


class TestCriterion8:
    """Randomised property suites, >= 1000 cases each, zero violations."""

    def test_level_delta_soundness(self, pool):
        started = time.monotonic()
        checked = 0
        for _, lts_a, _, lts_b, _ in pool:
            for lts in (lts_a, lts_b):
                for t in transitions(lts):
                    entries = t.label.entries
                    # well-formed labels: one entry per species
                    assert len({e.species for e in entries}) == len(entries)
                    deltas = {
                        e.species: e.role.level_delta(e.stoich) for e in entries
                    }
                    src, dst = lts.states[t.src], lts.states[t.dst]
                    for name, before, after in zip(lts.species_order, src, dst):
                        assert after - before == deltas.get(name, 0)
            checked += 1
        assert checked >= 1000
        _pass(8, time.monotonic() - started, f"level deltas sound on {checked} models")

    def test_conserved_constancy(self, pool, explicit_pool):
        started = time.monotonic()
        checked = 0
        for sys_a, lts_a, _, _, _ in pool + explicit_pool:
            basis = conserved_basis(stoich_matrix(sys_a))
            for y in basis:
                values = {dot(y, s) for s in lts_a.states}
                assert len(values) == 1  # constant on the whole derivative set
                for t in transitions(lts_a):
                    assert dot(y, lts_a.states[t.src]) == dot(y, lts_a.states[t.dst])
            checked += 1
        assert checked >= 2000
        _pass(8, time.monotonic() - started, f"conserved constancy on {checked} models")

    def test_slow_variable_constancy(self, pool, explicit_pool):
        started = time.monotonic()
        checked = 0
        for sys_a, lts_a, _, _, cfg in pool + explicit_pool:
            m = stoich_matrix(sys_a)
            cons = conserved_basis(m)
            slow = slow_basis(m, cfg, cons)
            for y in slow:
                changed = False
                fired_nonzero = False
                for t in transitions(lts_a):
                    delta = dot(y, lts_a.states[t.dst]) - dot(y, lts_a.states[t.src])
                    if t.label.action in cfg.fast:
                        assert delta == 0, "slow variable moved by a fast step"
                    if delta != 0:
                        changed = True
                    if dot(y, fired_column(m, t.label)) != 0:
                        fired_nonzero = True
                assert changed == fired_nonzero
            checked += 1
        assert checked >= 2000
        _pass(8, time.monotonic() - started, f"slow-variable constancy on {checked} models")

    def test_filter_label_homomorphism(self):
        started = time.monotonic()
        species = ["A", "B", "C", "D", "E"]
        roles = list(Role)
        for case in range(1000):
            rng = random.Random(f"filter:{case}")
            entries = [
                LabelEntry(
                    rng.choice(species),
                    rng.choice(roles),
                    rng.randint(0, 4),
                    rng.randint(1, 3),
                )
                for _ in range(rng.randint(0, 6))
            ]
            cut = rng.randint(0, len(entries))
            w1, w2 = set(entries[:cut]), set(entries[cut:])
            delta = frozenset(s for s in species if rng.random() < 0.4)
            aliases = {"B": "A"} if rng.random() < 0.5 else {}
            cfg = EquivConfig(frozenset(), frozenset({"g"}), delta, aliases)
            filtered = _Filtered(cfg)
            whole = filtered[CapabilityLabel("g", tuple(sorted(w1 | w2)))]
            left = filtered[CapabilityLabel("g", tuple(sorted(w1)))]
            right = filtered[CapabilityLabel("g", tuple(sorted(w2)))]
            assert set(whole.entries) == set(left.entries) | set(right.entries)
        _pass(8, time.monotonic() - started, "filter homomorphism on 1000 labels")

    def test_weak_views_vs_triple_loop_oracle(self, pool):
        started = time.monotonic()
        checked = 0
        for _, lts_a, _, _, cfg in pool:
            assert lts_a.n_states < 50
            views = WeakViews(lts_a, cfg)
            closure = warshall_closure(lts_a.n_states, fast_edges(lts_a, cfg))
            for i in range(lts_a.n_states):
                ours = views.fast_closure(i)
                assert ours == frozenset(closure[i])
                assert i in ours  # reflexive
                for j in ours:  # transitive
                    assert views.fast_closure(j) <= ours
            moves = {
                (i, w.action, w): set(ts)
                for i in range(lts_a.n_states)
                for w, ts in views.weak_slow_moves(i).items()
            }
            assert moves == weak_slow_oracle(lts_a, cfg)
            checked += 1
        assert checked >= 1000
        _pass(8, time.monotonic() - started, f"weak views match oracle on {checked} models")

    def test_degeneration_to_strong_bisimulation(self, pool):
        started = time.monotonic()
        checked = 0
        for _, lts_a, _, _, _ in pool:
            assert lts_a.n_states < 30
            cfg0 = EquivConfig(
                fast=frozenset(),
                slow=frozenset(label.action for label in lts_a.labels),
                delta=frozenset(lts_a.species_order),
            )
            rel, _ = largest_fast_slow(lts_a, lts_a, cfg0)
            assert rel == strong_bisim_oracle(lts_a)
            checked += 1
        assert checked >= 1000
        _pass(8, time.monotonic() - started, f"strong-bisimulation degeneration on {checked} systems")

    def test_largest_soundness_and_sampled_maximality(self, pool):
        started = time.monotonic()
        checked = 0
        for _, lts_a, _, lts_b, cfg in pool:
            for compute, check in (
                (largest_fast_slow, check_fast_slow_relation),
                (largest_slow, check_slow_relation),
            ):
                rel, _ = compute(lts_a, lts_b, cfg)
                if rel:
                    assert check(rel, lts_a, lts_b, cfg).equivalent
                deleted = sorted(
                    {
                        (p, q)
                        for p in range(lts_a.n_states)
                        for q in range(lts_b.n_states)
                    }
                    - rel
                )
                for pair in deleted[:1] + deleted[-1:]:
                    bigger = rel | {pair}
                    assert not check(bigger, lts_a, lts_b, cfg).equivalent
            checked += 1
        assert checked >= 1000
        _pass(8, time.monotonic() - started, f"largest-relation soundness/maximality on {checked} pairs")

    def test_suite_runtime_bound(self):
        elapsed = time.monotonic() - MODULE_STARTED
        assert elapsed < 120.0
        _pass(8, elapsed, "full property suite within the two-minute budget")
