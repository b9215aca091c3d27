"""Seeded random generation of small valid models for the property suites.

Everything is driven by explicit Random instances derived from a case
number, so the suites are reproducible run to run.
"""

from __future__ import annotations

import dataclasses
import random

from fastslow import (
    CapabilityLabel,
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
)
from fastslow.model import tree_leaves
from fastslow.semantics import Lts
from oracles import Transition, lts_from_transitions, transitions

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
    return SystemDef(tuple(species), _random_tree(rng, leaves, defs, sync_all), step)


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


# Fast steps are "f", slow steps "s" or "t"; labels have no entries.
SCC_CONFIG = EquivConfig(fast=frozenset({"f"}), slow=frozenset({"s", "t"}))
SCC_SHAPES = ("reversible", "cycle-exit", "chain", "silent", "dag")


def hand_lts(n: int, edges) -> Lts:
    """A transition system over the states (0,) .. (n-1,), initial (0,),
    with one transition per distinct ``(src, action, dst)`` edge."""
    moves = [Transition(src, CapabilityLabel(action, ()), dst) for src, action, dst in sorted(set(edges))]
    return lts_from_transitions(("X",), [(i,) for i in range(n)], 0, moves)


def random_scc_lts(rng: random.Random, shape: str) -> Lts:
    """A small transition system under ``SCC_CONFIG`` whose fast steps form
    large strongly connected components (SCCs), of one of five shapes:

    - ``reversible``: every fast step has its reverse;
    - ``cycle-exit``: a fast cycle with a slow step out of it to a state
      whose fast step leads back into the cycle;
    - ``chain``: fast cycles joined one after another by fast steps, so the
      fast closure of the first runs through all the others;
    - ``silent``: a fast cycle that no slow step leaves, entered by a slow
      step;
    - ``dag``: small fast cycles, each but the last with fast steps into
      two later ones, so that the SCCs one fast step apart share the
      SCCs below them.
    """
    def slow() -> str:
        return rng.choice("st")

    edges = []
    if shape == "reversible":
        n = rng.randint(2, 10)
        for _ in range(rng.randint(1, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            edges += [(u, "f", v), (v, "f", u)]
        edges += [(rng.randrange(n), slow(), rng.randrange(n)) for _ in range(rng.randint(0, n))]
    elif shape == "cycle-exit":
        k = rng.randint(2, 8)  # the cycle is 0 .. k-1, the exit state k
        n = k + 1
        edges += [(i, "f", (i + 1) % k) for i in range(k)]
        edges += [(rng.randrange(k), slow(), k), (k, "f", rng.randrange(k))]
        edges += [(rng.randrange(n), slow(), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
    elif shape == "chain":
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(3, 5))]
        starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        n = starts[-1]
        for lo, hi in zip(starts, starts[1:]):
            edges += [(i, "f", i + 1 if i + 1 < hi else lo) for i in range(lo, hi) if hi - lo > 1]
            if hi < n:
                edges.append((rng.randrange(lo, hi), "f", rng.randrange(hi, n)))
        edges += [(rng.randrange(n), slow(), rng.randrange(n)) for _ in range(rng.randint(1, n))]
    elif shape == "silent":
        k = rng.randint(2, 6)  # the silent cycle is 1 .. k
        n = k + rng.randint(1, 3)
        edges += [(i, "f", i % k + 1) for i in range(1, k + 1)]
        edges.append((0, slow(), rng.randint(1, k)))
        outside = [0] + list(range(k + 1, n))
        edges += [(rng.choice(outside), rng.choice("fst"), rng.randrange(n)) for _ in range(n)]
    elif shape == "dag":
        sizes = [rng.randint(1, 2) for _ in range(rng.randint(4, 6))]
        starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        n = starts[-1]
        for i, (lo, hi) in enumerate(zip(starts, starts[1:])):
            if hi - lo > 1:
                edges += [(lo, "f", lo + 1), (lo + 1, "f", lo)]
            # every SCC reaches the last one, so the two successors share it
            for j in rng.sample(range(i + 1, len(sizes)), min(2, len(sizes) - i - 1)):
                edges.append((rng.randrange(lo, hi), "f", rng.randrange(starts[j], starts[j + 1])))
        edges += [(rng.randrange(n), slow(), rng.randrange(n)) for _ in range(rng.randint(1, n))]
    else:
        raise ValueError(shape)
    return hand_lts(n, edges)


def permuted(lts: Lts, rng: random.Random) -> Lts:
    """``lts`` with its state vectors shuffled: isomorphic to it, with
    other state indices and another order of transitions."""
    perm = list(range(lts.n_states))
    rng.shuffle(perm)
    edges = [(perm[t.src], t.label.action, perm[t.dst]) for t in transitions(lts)]
    moved = hand_lts(lts.n_states, edges)
    return dataclasses.replace(moved, initial=perm[lts.initial])
