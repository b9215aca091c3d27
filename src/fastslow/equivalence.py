"""Fast-slow and slow bisimulation checking between two transition systems.

Both checks play the same matching game over pairs of states.  A strong
slow step of either state must be answered by a weak slow step of the
other with the same filtered label (action name and entries, after alias
renaming), landing back in the relation.  The fast-slow game additionally
requires every fast step to be answered by a (possibly empty) fast
sequence.  Verifying a user-supplied relation checks each stored pair in
both directions.

The largest bisimulation is the greatest fixpoint of deleting violating
pairs, computed by one worklist engine for both games (after Henzinger,
Henzinger & Kopke, "Computing simulations on finite and infinite
graphs", 1995).  The worklist starts from the pairs whose move keys are
compatible, and each deletion re-queues only the live pairs that could
have answered a move through the deleted pair.  Partition refinement is
not enough here: the largest slow bisimulation need not be transitive.
When the initial states end up unrelated, the witness is the first
unanswered move at the initial pair against the final relation.
"""

from __future__ import annotations

import reprlib
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Literal

from .model import EquivConfig, SystemDef, compose
from .semantics import (
    DEFAULT_STATE_CAP,
    CapabilityLabel,
    Lts,
    State,
    WeakViews,
    build_lts,
    format_state,
    json_array,
)


# Cross-system state index pairs (first, second).  A stored pair (p, q)
# stands for both (p, q) and (q, p): the checking game plays both
# directions, so no mirrored copies are kept.
Relation = frozenset[tuple[int, int]]


class EquivalenceError(Exception):
    pass


class RelationFormatError(EquivalenceError):
    pass


class RelationResolutionError(EquivalenceError):
    def __init__(self, vector, side: str):
        super().__init__(f"no reachable {side} state has level vector {list(vector)}")
        self.vector = tuple(vector)
        self.side = side


@dataclass(frozen=True)
class Witness:
    """A challenger move the defender could not answer inside the relation."""

    pair: tuple[State, State]
    side: Literal["left", "right"]
    kind: Literal["slow", "fast"]
    action: str | None
    label: CapabilityLabel | None
    target: State

    def describe(self) -> str:
        src = self.pair[0] if self.side == "left" else self.pair[1]
        other = "right" if self.side == "left" else "left"
        move = f"slow step {self.label}" if self.kind == "slow" else "fast step"
        left, right = (format_state(s) for s in self.pair)
        return (
            f"at pair ({left}, {right}): "
            f"{self.side} state {format_state(src)} offers {move} "
            f"to {format_state(self.target)} "
            f"with no matching weak move from the {other} state landing in the relation"
        )


@dataclass(frozen=True)
class CheckOutcome:
    verdict: Literal["equivalent", "not-equivalent", "relation-not-a-bisimulation"]
    witness: Witness | None = None

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def describe(self) -> str:
        if self.witness is None:
            return self.verdict
        return f"{self.verdict}: {self.witness.describe()}"


class _Game:
    """Matching game over one ordered pair of transition systems."""

    def __init__(self, a: Lts, b: Lts, cfg: EquivConfig, include_fast: bool):
        self.a = a
        self.b = b
        self.va = WeakViews(a, cfg)
        self.vb = WeakViews(b, cfg)
        self.include_fast = include_fast

    def witness_for(self, rel, p: int, q: int) -> Witness | None:
        """First unanswered challenger move at (p, q), or None.

        Slow challenges are tried before fast ones in both directions so
        witnesses name the more informative labelled move when several
        clauses fail at once.
        """
        a_states, b_states = self.a.states, self.b.states
        states = (a_states[p], b_states[q])
        for label, p2 in self.va.slow_strong(p):
            targets = self.vb.weak_slow_targets(q, label)
            if not any((p2, q2) in rel for q2 in targets):
                return Witness(states, "left", "slow", label.action, label, a_states[p2])
        for label, q2 in self.vb.slow_strong(q):
            targets = self.va.weak_slow_targets(p, label)
            if not any((p2, q2) in rel for p2 in targets):
                return Witness(states, "right", "slow", label.action, label, b_states[q2])
        if self.include_fast:
            for p2 in self.va.fast_steps(p):
                closure = self.vb.fast_closure(q)
                if not any((p2, q2) in rel for q2 in closure):
                    return Witness(states, "left", "fast", None, None, a_states[p2])
            for q2 in self.vb.fast_steps(q):
                closure = self.va.fast_closure(p)
                if not any((p2, q2) in rel for p2 in closure):
                    return Witness(states, "right", "fast", None, None, b_states[q2])
        return None


def _check_relation(
    rel: Relation, a: Lts, b: Lts, cfg: EquivConfig, include_fast: bool
) -> CheckOutcome:
    if not rel:
        raise EquivalenceError("empty-relation")
    for p, q in rel:
        if not (0 <= p < a.n_states and 0 <= q < b.n_states):
            raise EquivalenceError(f"index-out-of-range(({p},{q}))")
    game = _Game(a, b, cfg, include_fast)
    for p, q in sorted(rel):
        witness = game.witness_for(rel, p, q)
        if witness is not None:
            return CheckOutcome("relation-not-a-bisimulation", witness)
    return CheckOutcome("equivalent")


def check_fast_slow_relation(
    rel: Relation, a: Lts, b: Lts, cfg: EquivConfig
) -> CheckOutcome:
    """Verify a user-supplied fast-slow bisimulation candidate."""
    return _check_relation(rel, a, b, cfg, include_fast=True)


def check_slow_relation(
    rel: Relation, a: Lts, b: Lts, cfg: EquivConfig
) -> CheckOutcome:
    """Verify a user-supplied slow bisimulation candidate (fast clause dropped)."""
    return _check_relation(rel, a, b, cfg, include_fast=False)


def _index(
    views: WeakViews, n: int, include_fast: bool
) -> tuple[dict, list[set[int]], list[set[int]]]:
    """Move-key groups and predecessor sets of the states of one side.

    States are grouped by (strong slow keys, weak slow keys), a key being
    a filtered label.  The strong predecessors of x are the
    states with a challenger move into x (a slow step, or a fast step in
    fast-slow mode); the weak predecessors are the states with a defender
    answer landing in x (a weak slow target, or a fast-closure member in
    fast-slow mode).
    """
    groups: dict[tuple[frozenset, frozenset], list[int]] = {}
    strong: list[set[int]] = [set() for _ in range(n)]
    weak: list[set[int]] = [set() for _ in range(n)]
    for s in range(n):
        slow = views.slow_strong(s)
        weak_moves = views.weak_slow_moves(s)
        strong_keys = frozenset(label for label, _ in slow)
        groups.setdefault((strong_keys, frozenset(weak_moves)), []).append(s)
        for _, dst in slow:
            strong[dst].add(s)
        for targets in weak_moves.values():
            for dst in targets:
                weak[dst].add(s)
        if include_fast:
            for dst in views.fast_steps(s):
                strong[dst].add(s)
            for dst in views.fast_closure(s):
                weak[dst].add(s)
    return groups, strong, weak


def _initial_pairs(groups_a, groups_b, include_fast: bool) -> set[tuple[int, int]]:
    """Pairs whose move keys are compatible.

    Every pair of the greatest fixpoint passes this filter.  In slow
    mode each strong move of one side must be answered by a weak move
    of the other with the same key.  In fast-slow mode the fast clause
    carries the defender along every fast path of the challenger, so
    every weak move of one side is also a weak move of the other and
    the weak key sets are equal.
    """
    pairs = set()
    for (strong_a, weak_a), states_a in groups_a.items():
        for (strong_b, weak_b), states_b in groups_b.items():
            if include_fast:
                compatible = weak_a == weak_b
            else:
                compatible = strong_a <= weak_b and strong_b <= weak_a
            if compatible:
                pairs.update((p, q) for p in states_a for q in states_b)
    return pairs


def _largest(
    a: Lts, b: Lts, cfg: EquivConfig, include_fast: bool
) -> tuple[Relation, CheckOutcome]:
    game = _Game(a, b, cfg, include_fast)
    groups_a, strong_a, weak_a = _index(game.va, a.n_states, include_fast)
    groups_b, strong_b, weak_b = _index(game.vb, b.n_states, include_fast)
    rel = _initial_pairs(groups_a, groups_b, include_fast)
    queue = deque(sorted(rel))
    queued = set(rel)

    def requeue(lefts, rights):
        for p in lefts:
            for q in rights:
                pair = (p, q)
                if pair in rel and pair not in queued:
                    queued.add(pair)
                    queue.append(pair)

    while queue:
        pair = queue.popleft()
        queued.discard(pair)
        if game.witness_for(rel, *pair) is None:
            continue
        # The answers of (p, q) that used (x, y) were a challenger move
        # into x against a defender answer landing in y, or the mirror.
        rel.discard(pair)
        x, y = pair
        requeue(strong_a[x], weak_b[y])
        requeue(weak_a[x], strong_b[y])
    initial = (a.initial, b.initial)
    if initial in rel:
        outcome = CheckOutcome("equivalent")
    else:
        # Some move at the initial pair fails against the final relation;
        # otherwise adding the pair would give a larger bisimulation.
        outcome = CheckOutcome("not-equivalent", game.witness_for(rel, *initial))
    return frozenset(rel), outcome


def largest_fast_slow(
    a: Lts, b: Lts, cfg: EquivConfig
) -> tuple[Relation, CheckOutcome]:
    """Greatest fast-slow bisimulation over the cross product of states.

    Pairs with unequal weak slow move keys are never related; the rest
    are checked from a worklist, and a pair failing either clause is
    deleted and the pairs whose answers used it are checked again.  The
    result is the unique greatest fixpoint, whatever the order.  The
    outcome reports whether the two initial states remained related and,
    if not, a challenger move at the initial pair that has no answer in
    the returned relation.
    """
    return _largest(a, b, cfg, include_fast=True)


def largest_slow(a: Lts, b: Lts, cfg: EquivConfig) -> tuple[Relation, CheckOutcome]:
    """Greatest slow bisimulation; as largest_fast_slow without the fast clause.

    The worklist starts from the pairs where the strong slow move keys of
    each side are among the weak slow move keys of the other.
    """
    return _largest(a, b, cfg, include_fast=False)


def shared_fast_actions(
    p: SystemDef, q: SystemDef, cfg: EquivConfig
) -> frozenset[str]:
    """Fast actions occurring in both models.

    An empty result certifies the side condition under which fast-slow
    bisimilarity is preserved by shared-all cooperation with a context.
    """
    return cfg.fast & p.actions() & q.actions()


@dataclass(frozen=True)
class CongruenceReport:
    shared_with_p1: frozenset[str]
    shared_with_p2: frozenset[str]
    component: CheckOutcome
    composed: CheckOutcome

    @property
    def side_condition_ok(self) -> bool:
        return not self.shared_with_p1 and not self.shared_with_p2


def congruence_probe(
    p1: SystemDef,
    p2: SystemDef,
    q: SystemDef,
    cfg: EquivConfig,
    max_states: int = DEFAULT_STATE_CAP,
) -> CongruenceReport:
    """Compare two models before and after composing each with a context.

    Reports the shared fast actions with the context (the congruence side
    condition), the verdict for the components and the verdict for the
    compositions; used to confirm congruence instances and the failure
    mode when the side condition is violated.  Both compositions are
    formed, and so validated, and ``cfg`` is checked against them
    (``config_problems``, raised as one ``EquivalenceError``) before any
    transition system is built; every one is built under the
    ``max_states`` cap.
    """
    shared1 = shared_fast_actions(p1, q, cfg)
    shared2 = shared_fast_actions(p2, q, cfg)
    composed_a, composed_b = compose(p1, q), compose(p2, q)
    # the verdict that counts compares the compositions with the context
    problems = config_problems(cfg, composed_a, composed_b)
    if problems:
        raise EquivalenceError("\n".join(problems))
    _, component = largest_fast_slow(
        build_lts(p1, max_states=max_states), build_lts(p2, max_states=max_states), cfg
    )
    _, composed = largest_fast_slow(
        build_lts(composed_a, max_states=max_states),
        build_lts(composed_b, max_states=max_states),
        cfg,
    )
    return CongruenceReport(shared1, shared2, component, composed)


def partition_problems(cfg: EquivConfig, *systems: SystemDef) -> list[str]:
    """Reactions the models declare that neither ``fast`` nor ``slow`` names.

    The partition must cover every declared reaction, whether or not it
    can fire from the initial state.
    """
    declared = frozenset().union(*(s.actions() for s in systems))
    return [
        f"unpartitioned-action({a})" for a in sorted(declared - cfg.fast - cfg.slow)
    ]


def config_problems(cfg: EquivConfig, a: SystemDef, b: SystemDef) -> list[str]:
    """Everything wrong with ``cfg`` for comparing ``a`` with ``b``.

    Reads only the models' declarations, so it runs before any
    transition system is built: the partition must cover both models'
    reactions, and every comparison species must be a species of ``a``
    or, through the aliases, of ``b``.
    """
    known = set(a.species_order) | {cfg.canon(s) for s in b.species_order}
    unknown = [f"unknown-species-in-delta({n})" for n in sorted(cfg.delta) if n not in known]
    return partition_problems(cfg, a, b) + unknown


def read_pair(item) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One relation entry: a [first-vector, second-vector] pair.

    Each vector must be an array of integers.  Booleans, fractions,
    strings and scalars are refused, never coerced.
    """
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise RelationFormatError(
            "relation entries must be [first-vector, second-vector] pairs"
        )
    for vector, side in zip(item, ("first-model", "second-model")):
        if not isinstance(vector, (list, tuple)) or any(type(x) is not int for x in vector):
            shown = reprlib.repr(vector)  # bounded in length and depth
            raise RelationFormatError(f"{side} vector {shown} is not an integer array")
    return tuple(item[0]), tuple(item[1])


def resolve_relation(pairs: Iterable, a: Lts, b: Lts) -> Relation:
    """Turn pairs of level vectors into a relation over state indices.

    Each element is read by ``read_pair``; vectors that match no
    reachable state are errors, never silently dropped.
    """
    out = set()
    for item in pairs:
        va, vb = read_pair(item)
        try:
            p = a.index_of(va)
        except KeyError:
            raise RelationResolutionError(va, "first-model") from None
        try:
            q = b.index_of(vb)
        except KeyError:
            raise RelationResolutionError(vb, "second-model") from None
        out.add((p, q))
    return frozenset(out)


def relation_to_json(rel: Relation, a: Lts, b: Lts) -> str:
    """The relation as a JSON array of [first-vector, second-vector] pairs
    in ``sorted(rel)`` order, laid out as ``json.dumps(indent=2)`` lays it
    out.  Each state's vector is rendered once."""
    left = {p: json_array(list(map(str, a.states[p])), "    ") for p in {p for p, _ in rel}}
    right = {q: json_array(list(map(str, b.states[q])), "    ") for q in {q for _, q in rel}}
    pairs = [f"[\n    {left[p]},\n    {right[q]}\n  ]" for p, q in sorted(rel)]
    return json_array(pairs, "")
