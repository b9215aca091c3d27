"""Seeded random generation of small valid models for the property suites.

Everything is driven by explicit Random instances derived from a case
number, so the suites are reproducible run to run.
"""

from __future__ import annotations

import random

from fastslow import (
    EquivConfig,
    Leaf,
    Node,
    Prefix,
    Role,
    SpeciesDef,
    StateSpaceLimitError,
    SystemDef,
    build_lts,
    max_level,
    validate_system,
)
from fastslow.model import tree_leaves
from fastslow.semantics import Lts

ROLES = [
    Role.REACTANT,
    Role.REACTANT,
    Role.REACTANT,
    Role.REACTANT,
    Role.PRODUCT,
    Role.PRODUCT,
    Role.PRODUCT,
    Role.PRODUCT,
    Role.ACTIVATOR,
    Role.INHIBITOR,
    Role.GENERIC,
]

STATE_LIMIT = 14


def _random_tree(rng: random.Random, leaves, defs, sync_all: bool) -> Leaf | Node:
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    left = _random_tree(rng, leaves[:cut], defs, sync_all)
    right = _random_tree(rng, leaves[cut:], defs, sync_all)
    coop = None
    if not sync_all and rng.random() < 0.3:
        def actions_of(tree):
            leaves = tree_leaves(tree)
            return set().union(*(defs[leaf.species].actions() for leaf in leaves))

        shared = sorted(actions_of(left) & actions_of(right))
        coop = frozenset(
            a for a in shared if rng.random() < 0.7
        )
    return Node(left, coop, right)


def random_system(rng: random.Random, prefix: str = "X", sync_all: bool = True) -> SystemDef:
    """A small valid model.

    With ``sync_all`` every node uses the shared-all combinator, which is
    the standing assumption behind stoichiometry-based classification (a
    reaction always fires with all of its participants).  Explicit
    cooperation subsets, which can fire a reaction with only part of its
    participants, are only generated when ``sync_all`` is off.
    """
    n_actions = rng.randint(2, 4)
    actions = [f"r{k}" for k in range(n_actions)]
    step = rng.choice([1, 1, 1, 2])
    defs = {}
    species = []
    for i in range(rng.randint(2, 3)):
        count = rng.randint(1, min(3, n_actions))
        chosen = rng.sample(actions, count)
        prefixes = tuple(
            Prefix(a, rng.choice([1, 1, 1, 2]), rng.choice(ROLES)) for a in chosen
        )
        sdef = SpeciesDef(f"{prefix}{i}", prefixes, rng.randint(2, 4))
        defs[sdef.name] = sdef
        species.append(sdef)
    leaves = [
        Leaf(s.name, rng.randint(0, max_level(s, step))) for s in species
    ]
    sys = SystemDef(tuple(species), _random_tree(rng, leaves, defs, sync_all), step)
    assert not validate_system(sys)
    return sys


def random_small_lts(
    seed, prefix: str = "X", sync_all: bool = True, allow_trivial: bool = False
) -> tuple[SystemDef, Lts]:
    """A system whose reachable state space stays small but alive.

    Retries deterministically until the state count lands in 2..14, so
    the property suites do not fill up with vacuous single-state systems;
    ``allow_trivial`` keeps whatever comes out first (deadlocked systems
    are legitimate edge cases and a slice of the pool keeps them).
    """
    for attempt in range(200):
        rng = random.Random(f"{seed}:{attempt}")
        sys = random_system(rng, prefix, sync_all)
        try:
            lts = build_lts(sys, max_states=STATE_LIMIT)
        except StateSpaceLimitError:
            continue
        if lts.n_states >= 2 or allow_trivial:
            return sys, lts
    raise AssertionError(f"no small system found for seed {seed}")


def random_partition(rng: random.Random, actions: frozenset[str]) -> tuple[frozenset[str], frozenset[str]]:
    # sorted: set iteration order of strings changes with the hash seed
    fast = frozenset(a for a in sorted(actions) if rng.random() < 0.5)
    return fast, actions - fast


def random_case(case: int, seed: str = "fastslow-suite", sync_all: bool = True):
    """A pair of small systems over one action pool plus a configuration.

    Every tenth case may be trivial (deadlocked or single-state); the rest
    are required to have at least one transition.  ``sync_all`` is passed
    on to ``random_system``.
    """
    trivial_ok = case % 10 == 0
    sys_a, lts_a = random_small_lts(
        f"{seed}:{case}:a", sync_all=sync_all, allow_trivial=trivial_ok
    )
    sys_b, lts_b = random_small_lts(
        f"{seed}:{case}:b", sync_all=sync_all, allow_trivial=trivial_ok
    )
    rng = random.Random(f"{seed}:{case}:cfg")
    actions = sys_a.actions() | sys_b.actions()
    fast, slow = random_partition(rng, actions)
    species = sorted(set(sys_a.species_order) | set(sys_b.species_order))
    delta = frozenset(s for s in species if rng.random() < 0.4)
    cfg = EquivConfig(fast=fast, slow=slow, delta=delta)
    return sys_a, lts_a, sys_b, lts_b, cfg
