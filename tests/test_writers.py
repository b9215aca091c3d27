"""The JSON writers against ``json.dumps(..., indent=2)``.

``lts_to_json`` and ``relation_to_json`` lay their documents out by hand.
Every output here must equal, byte for byte, what ``json.dumps`` with
``indent=2`` writes for the same document: the reference for a transition
system is ``lts_to_dict``, and for a relation the list of
[first-vector, second-vector] pairs in ``sorted(rel)`` order.
"""

from __future__ import annotations

import json

import pytest

from fastslow import (
    CapabilityLabel,
    LabelEntry,
    Leaf,
    Lts,
    Prefix,
    Role,
    SpeciesDef,
    SystemDef,
    Transition,
    build_lts,
    largest_fast_slow,
    largest_slow,
    lts_to_dict,
    lts_to_json,
    relation_to_json,
)
from randgen import random_case
from systems import inhibition_config, inhibition_full, inhibition_reduced

CASES = 300  # two systems per case, in each of the two cooperation modes


def lts_reference(lts: Lts) -> str:
    return json.dumps(lts_to_dict(lts), indent=2)


def relation_reference(rel, a: Lts, b: Lts) -> str:
    pairs = [[list(a.states[p]), list(b.states[q])] for p, q in sorted(rel)]
    return json.dumps(pairs, indent=2)


def one_species(name: str, prefixes: tuple[Prefix, ...], level: int) -> SystemDef:
    return SystemDef((SpeciesDef(name, prefixes, 3),), Leaf(name, level))


@pytest.mark.parametrize("sync_all", [True, False])
def test_random_systems_and_their_largest_relations(sync_all):
    largest_sizes = []
    for case in range(CASES):
        _, a, _, b, cfg = random_case(case, seed="writers", sync_all=sync_all)
        assert lts_to_json(a) == lts_reference(a), case
        assert lts_to_json(b) == lts_reference(b), case
        for largest in (largest_fast_slow, largest_slow):
            rel, _ = largest(a, b, cfg)
            assert relation_to_json(rel, a, b) == relation_reference(rel, a, b), case
            largest_sizes.append(len(rel))
    # the suite reaches empty relations and relations of many pairs
    assert min(largest_sizes) == 0
    assert max(largest_sizes) >= 20


def test_inhibition_models_with_primes_in_names():
    full, reduced = build_lts(inhibition_full(5, 3, 1)), build_lts(inhibition_reduced(5, 3, 1))
    assert "S'" in reduced.species_order
    assert lts_to_json(full) == lts_reference(full)
    assert lts_to_json(reduced) == lts_reference(reduced)
    for largest in (largest_fast_slow, largest_slow):
        rel, _ = largest(full, reduced, inhibition_config())
        assert len(rel) > 1
        assert relation_to_json(rel, full, reduced) == relation_reference(rel, full, reduced)


def test_model_without_enabled_reaction():
    lts = build_lts(one_species("A", (Prefix("r", 1, Role.REACTANT),), 0))
    assert lts.n_transitions == 0
    assert lts_to_json(lts) == lts_reference(lts)
    assert '"transitions": []' in lts_to_json(lts)


def test_label_without_entries():
    lts = Lts(
        species_order=("A",),
        states=((0,), (1,)),
        initial=0,
        transitions=(Transition(0, CapabilityLabel("r", ()), 1),),
    )
    assert lts_to_json(lts) == lts_reference(lts)
    assert '"entries": []' in lts_to_json(lts)


def test_no_species():
    lts = Lts(species_order=(), states=((),), initial=0, transitions=())
    assert lts_to_json(lts) == lts_reference(lts)
    rel = frozenset({(0, 0)})
    assert relation_to_json(rel, lts, lts) == relation_reference(rel, lts, lts)


def test_empty_relation():
    a = build_lts(inhibition_reduced(2, 1, 0))
    assert relation_to_json(frozenset(), a, a) == relation_reference(frozenset(), a, a) == "[]"


def test_non_ascii_species_is_escaped():
    lts = build_lts(one_species("É", (Prefix("r", 1, Role.PRODUCT),), 0))
    document = lts_to_json(lts)
    assert document == lts_reference(lts)
    assert '"\\u00c9"' in document
    assert document.isascii()


def test_percent_and_quotes_in_hand_built_names():
    # the model language allows neither, but the writer must not read a
    # name as part of its substitution template
    label = CapabilityLabel('r%d"', (LabelEntry('A%s\\', Role.GENERIC, 1, 1),))
    lts = Lts(
        species_order=('A%s\\',),
        states=((1,),),
        initial=0,
        transitions=(Transition(0, label, 0),),
    )
    assert lts_to_json(lts) == lts_reference(lts)
