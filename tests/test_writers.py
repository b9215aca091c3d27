"""The writers against references that render naively.

``lts_to_json`` and ``relation_to_json`` lay their documents out by hand.
Every output here must equal, byte for byte, what ``json.dumps`` with
``indent=2`` writes for the same document: the reference for a transition
system is ``oracles.json_oracle``, and for a relation the list of
[first-vector, second-vector] pairs in ``sorted(rel)`` order.
``lts_to_dot`` renders each distinct filtered label once; it must equal
``oracles.dot_oracle``, which filters and renders every edge.  The CLI
streams the same pieces into its files in batches, and the files must
equal the library's strings wherever a batch ends.
"""

from __future__ import annotations

import json
import tracemalloc
from itertools import chain

import pytest

from fastslow import (
    CapabilityLabel,
    EquivConfig,
    LabelEntry,
    Leaf,
    Lts,
    Prefix,
    Role,
    SpeciesDef,
    SystemDef,
    build_lts,
    largest_fast_slow,
    largest_slow,
    lts_to_dot,
    lts_to_json,
    parse_config,
    relation_to_json,
)
from fastslow import cli
from fastslow.equivalence import relation_json_pieces
from fastslow.semantics import lts_dot_pieces, lts_json_pieces
from oracles import Transition, dot_oracle, filter_oracle, json_oracle, lts_from_transitions, transitions
from randgen import random_case
from systems import inhibition_config, inhibition_full, inhibition_reduced, pathway

CASES = 300  # two systems per case, in each of the two cooperation modes


def lts_reference(lts: Lts) -> str:
    return json.dumps(json_oracle(lts), indent=2)


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


@pytest.mark.parametrize("sync_all", [True, False])
def test_dot_against_the_edge_by_edge_oracle(sync_all):
    merged = 0
    for case in range(CASES):
        _, a, _, b, _ = random_case(case, seed="dot", sync_all=sync_all)
        for lts in (a, b):
            first, second, *rest = lts.species_order
            # the first species' entries move onto the second's, where
            # equal entries merge; a third moves to a name sorting first
            aliases = {first: second, **{name: "A" for name in rest}}
            configs = [
                EquivConfig(frozenset(), frozenset(), frozenset({second, "A"}), aliases),
                EquivConfig(frozenset(), frozenset(), frozenset({first, *rest}), aliases),
            ]
            assert lts_to_dot(lts) == dot_oracle(lts), case
            for cfg in configs:
                assert lts_to_dot(lts, cfg) == dot_oracle(lts, cfg), case
            # every entry survives the first configuration, so a shorter
            # filtered label has merged two entries
            merged += sum(
                len(filter_oracle(t.label, configs[0]).entries) < len(t.label.entries)
                for t in transitions(lts)
            )
    assert merged > 50


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
    lts = lts_from_transitions(("A",), ((0,), (1,)), 0, [Transition(0, CapabilityLabel("r", ()), 1)])
    assert lts_to_json(lts) == lts_reference(lts)
    assert '"entries": []' in lts_to_json(lts)


def test_no_species():
    lts = lts_from_transitions((), ((),), 0, [])
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
    # the model language allows neither, but no writer may read a name
    # as a format string; one label is shared by transitions whose
    # indices cross a digit boundary
    names = ('A%s\\', "B%%", "C%(x)s", 'D%d"')
    label = CapabilityLabel(
        'r%d%%%(x)s"', tuple(LabelEntry(name, Role.GENERIC, 1, 1) for name in names)
    )
    ends = [(0, 0), (9, 10), (99, 100), (100, 9)]
    lts = lts_from_transitions(
        names, [(1, 1, 1, i) for i in range(101)], 0, [Transition(src, label, dst) for src, dst in ends]
    )
    assert lts_to_json(lts) == lts_reference(lts)
    cfg = EquivConfig(frozenset(), frozenset(), frozenset({"E%d"}), {"A%s\\": "E%d", "C%(x)s": "E%d"})
    assert lts_to_dot(lts) == dot_oracle(lts)
    assert lts_to_dot(lts, cfg) == dot_oracle(lts, cfg)


def traced_peak(write) -> tuple[int, str]:
    """The ``tracemalloc`` peak while ``write()`` runs, counting the
    document it returns, and that document."""
    tracemalloc.start()
    try:
        document = write()
        return tracemalloc.get_traced_memory()[1], document
    finally:
        tracemalloc.stop()


# A writer holds the pieces of its document until one join.  A copy of
# a label's rendering per transition (a template filled in per edge), or
# one string per pair, holds about as much again as the document.


def test_lts_to_json_holds_little_beyond_its_document():
    lts = build_lts(inhibition_full(60, 6, 3))
    peak, document = traced_peak(lambda: lts_to_json(lts))
    assert peak < 2.5 * len(document)


def test_lts_to_dot_holds_little_beyond_its_document(fixtures):
    lts = build_lts(inhibition_full(60, 6, 3))
    cfg = parse_config((fixtures / "inhibition.cfg").read_text())
    peak, document = traced_peak(lambda: lts_to_dot(lts, cfg))
    assert peak < 5.0 * len(document)


def test_relation_to_json_holds_little_beyond_its_document():
    model, cfg = pathway(3, 4)
    lts = build_lts(model)
    rel, _ = largest_slow(lts, lts, cfg)
    assert len(rel) == 6061
    peak, document = traced_peak(lambda: relation_to_json(rel, lts, lts))
    assert peak < 2.0 * len(document)


# The CLI writes ``cli.BATCH`` pieces at a time, so it holds one batch of
# text, not the document; what it keeps beyond that grows with the states
# and distinct labels (a rendering per state index, a body or label text
# per distinct label).  On inhibition almost every label is distinct, so
# its kept bodies alone are about the size of the document: pathway's
# labels repeat.


def streamed_peak(path, pieces) -> int:
    """The ``tracemalloc`` peak while ``cli._write`` streams ``pieces``
    into ``path``; the pieces are rendered as they are written."""
    tracemalloc.start()
    try:
        cli._write(path, pieces)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_relation_holds_less_than_its_document(tmp_path):
    model, cfg = pathway(3, 4)
    lts = build_lts(model)
    rel, _ = largest_slow(lts, lts, cfg)
    assert len(rel) == 6061
    path = tmp_path / "rel.json"
    peak = streamed_peak(path, relation_json_pieces(rel, lts, lts))
    assert path.read_text() == relation_to_json(rel, lts, lts)
    assert peak < 1.0 * path.stat().st_size


def test_streamed_lts_documents_hold_less_than_themselves(tmp_path):
    model, cfg = pathway(4, 6)
    lts = build_lts(model)
    for name, pieces, document in (
        ("lts.json", lts_json_pieces(lts), lts_to_json),
        ("lts.dot", lts_dot_pieces(lts, cfg), lambda lts: lts_to_dot(lts, cfg)),
    ):
        path = tmp_path / name
        peak = streamed_peak(path, pieces)
        assert path.read_text() == document(lts), name
        assert peak < 1.0 * path.stat().st_size, name


@pytest.mark.parametrize("batch", [1, 2, 3, 5, cli.BATCH])
def test_streamed_files_equal_the_library_strings(tmp_path, monkeypatch, batch):
    # a batch of one writes the first transition's trimmed head alone
    monkeypatch.setattr(cli, "BATCH", batch)
    model, cfg = pathway(3, 4)
    lts = build_lts(model)
    rel, _ = largest_slow(lts, lts, cfg)
    idle = build_lts(one_species("A", (Prefix("r", 1, Role.REACTANT),), 0))
    assert idle.n_transitions == 0
    cases = [
        (lts_json_pieces(lts), lts_to_json(lts)),
        (lts_dot_pieces(lts, cfg), lts_to_dot(lts, cfg)),
        (lts_dot_pieces(lts), lts_to_dot(lts)),
        (relation_json_pieces(rel, lts, lts), relation_to_json(rel, lts, lts)),
        (lts_json_pieces(idle), lts_to_json(idle)),
        (lts_dot_pieces(idle), lts_to_dot(idle)),
        (relation_json_pieces(frozenset(), idle, idle), "[]"),
    ]
    for case, (pieces, document) in enumerate(cases):
        path = tmp_path / f"{case}.out"
        cli._write(path, chain(pieces, ("\n",)))
        assert path.read_text() == document + "\n", case
    # the relation runs to several batches of the default size
    assert 2 * len(rel) > 4 * cli.BATCH
