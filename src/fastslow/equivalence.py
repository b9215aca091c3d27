"""Fast-slow and slow bisimulation checking between two transition systems.

Both checks play the same matching game over pairs of states.  A strong
slow step of either state must be answered by a weak slow step of the
other with the same filtered label (action name and entries, after alias
renaming), landing back in the relation.  The fast-slow game additionally
requires every fast step to be answered by a (possibly empty) fast
sequence.  Verifying a user-supplied relation checks each stored pair in
both directions; ``relation_verdict`` then asks for the initial pair.

Within one system, fast-slow bisimilarity is weak bisimilarity with fast
actions as silent steps, so the largest fast-slow bisimulation on the
disjoint union of both systems is an equivalence: the strong
bisimilarity of the saturated system (Milner, 1989).  It is found by
signature refinement over the graph of the fast SCCs of both sides
(Blom & Orzan, 2003), which needs the blocks that an SCC's fast closure
reaches but never the closure itself.  Partition refinement is not
enough for slow bisimulation, whose largest relation need not be
transitive.  It is the greatest fixpoint of deleting violating pairs
from those whose move keys are compatible, held as rows and columns so
that each clause is one set-disjointness test.  A worklist of states
re-checks a row after a deletion that could change an answer it used
(after Henzinger, Henzinger & Kopke, "Computing simulations on finite
and infinite graphs", 1995).  When the initial states end up unrelated,
the witness is the first unanswered move at the initial pair against
the final relation.
"""

from __future__ import annotations

import reprlib
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
    verdict: Literal[
        "equivalent",
        "not-equivalent",
        "relation-not-a-bisimulation",
        "relation-valid-but-initial-states-unrelated",
    ]
    witness: Witness | None = None

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def describe(self) -> str:
        if self.witness is None:
            return self.verdict
        return f"{self.verdict}: {self.witness.describe()}"


_NONE: frozenset[int] = frozenset()


class _Game:
    """Matching game over one ordered pair of transition systems, played
    on a relation held as rows (``rows[p]``: the second-system states
    related to ``p``) and columns (the converse) of the related states."""

    def __init__(self, a: Lts, b: Lts, cfg: EquivConfig, include_fast: bool):
        self.a = a
        self.b = b
        self.va = WeakViews(a, cfg)
        self.vb = WeakViews(b, cfg)
        self.include_fast = include_fast

    def witness_for(self, rows: dict, cols: dict, p: int, q: int) -> Witness | None:
        """First unanswered challenger move at (p, q), or None.

        A challenger move into x is answered when x's row (or column)
        meets the defender's weak slow targets (or fast closure).  Slow
        challenges are tried before fast ones in both directions so
        witnesses name the more informative labelled move when several
        clauses fail at once.
        """
        a_states, b_states = self.a.states, self.b.states
        states = (a_states[p], b_states[q])
        for label, p2 in self.va.slow_strong(p):
            if rows.get(p2, _NONE).isdisjoint(self.vb.weak_slow_targets(q, label)):
                return Witness(states, "left", "slow", label.action, label, a_states[p2])
        for label, q2 in self.vb.slow_strong(q):
            if cols.get(q2, _NONE).isdisjoint(self.va.weak_slow_targets(p, label)):
                return Witness(states, "right", "slow", label.action, label, b_states[q2])
        if self.include_fast:
            for p2 in self.va.fast_steps(p):
                if rows.get(p2, _NONE).isdisjoint(self.vb.fast_closure(q)):
                    return Witness(states, "left", "fast", None, None, a_states[p2])
            for q2 in self.vb.fast_steps(q):
                if cols.get(q2, _NONE).isdisjoint(self.va.fast_closure(p)):
                    return Witness(states, "right", "fast", None, None, b_states[q2])
        return None


def _outcome(game: _Game, rows: dict, cols: dict, checked=None) -> CheckOutcome:
    """The verdict on the relation in ``rows`` and ``cols``: a candidate
    fails at the first of the ``checked`` pairs with an unanswered move.
    Without ``checked`` it is the largest bisimulation.  If it leaves the
    initial pair out, some move there fails against it; otherwise adding
    the pair would give a larger bisimulation."""
    verdict = "relation-not-a-bisimulation"
    if checked is None:
        verdict = "not-equivalent"
        p, q = game.a.initial, game.b.initial
        checked = () if q in rows.get(p, _NONE) else ((p, q),)
    for p, q in checked:
        witness = game.witness_for(rows, cols, p, q)
        if witness is not None:
            return CheckOutcome(verdict, witness)
    return CheckOutcome("equivalent")


def _check_relation(
    rel: Relation, a: Lts, b: Lts, cfg: EquivConfig, include_fast: bool
) -> CheckOutcome:
    if not rel:
        raise EquivalenceError("empty-relation")
    rows: dict[int, set[int]] = {}
    cols: dict[int, set[int]] = {}
    for p, q in rel:
        if not (0 <= p < a.n_states and 0 <= q < b.n_states):
            raise EquivalenceError(f"index-out-of-range(({p},{q}))")
        rows.setdefault(p, set()).add(q)
        cols.setdefault(q, set()).add(p)
    return _outcome(_Game(a, b, cfg, include_fast), rows, cols, sorted(rel))


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


def relation_verdict(
    outcome: CheckOutcome, rel: Relation, a: Lts, b: Lts
) -> CheckOutcome:
    """The verdict on ``a`` and ``b`` from the check of ``rel``.

    A bisimulation shows the systems equivalent only if it relates their
    initial states; a valid one that leaves them out shows nothing.
    """
    if outcome.equivalent and (a.initial, b.initial) not in rel:
        return CheckOutcome("relation-valid-but-initial-states-unrelated")
    return outcome


def _index(game: _Game) -> tuple[dict, dict, list[set[int]]]:
    """The initial rows and columns of the slow game, and the weak slow
    predecessors of the first system's states.

    A pair starts related when each strong slow key (a filtered label) of
    one state is a weak slow key of the other; states are grouped by both
    key sets.  The weak predecessors of x are the states with a weak slow
    target x, so also those with a slow step into x; weak targets hold
    whole fast SCCs, so the members of an SCC share one set.
    """
    groups = []
    for views in (game.va, game.vb):
        keys: dict[tuple[frozenset, frozenset], list[int]] = {}
        for s in range(len(views.scc)):
            strong = frozenset(label for label, _ in views.slow_strong(s))
            keys.setdefault((strong, frozenset(views.weak_slow_moves(s))), []).append(s)
        groups.append(keys)
    rows: dict[int, set[int]] = {}
    cols: dict[int, set[int]] = {}
    for (strong_p, weak_p), ps in groups[0].items():
        for (strong_q, weak_q), qs in groups[1].items():
            if strong_p <= weak_q and strong_q <= weak_p:
                for p in ps:
                    rows.setdefault(p, set()).update(qs)
                for q in qs:
                    cols.setdefault(q, set()).update(ps)
    views = game.va
    preds: list[set[int]] = [set() for _ in views.members]
    for members in views.members:
        targets = frozenset().union(*views.weak_slow_moves(members[0]).values())
        for d in {views.scc[t] for t in targets}:
            preds[d].update(members)
    return rows, cols, [preds[c] for c in views.scc]


def largest_fast_slow(
    a: Lts, b: Lts, cfg: EquivConfig
) -> tuple[Relation, CheckOutcome]:
    """Greatest fast-slow bisimulation over the cross product of states.

    Fast-slow bisimilarity is weak bisimilarity with fast actions as
    silent steps, so the greatest one on the disjoint union of both
    systems is an equivalence.  It is found by signature refinement of
    the fast SCCs of both sides (Blom & Orzan, 2003), starting from one
    block.  Each round gives an SCC c the signature (closure(c), weak(c)),
    read off the SCC graph sinks first, with no closure of states built.
    closure(c) holds the block of c and closure(d) of each fast successor
    d: the blocks of c's fast closure.  weak(c) holds (label, b) for each
    strong slow move (label, d) of c and b in closure(d), and weak(d) of
    each fast successor d: the (label, block) pairs of c's weak slow
    moves.  Each round refines the last, until the number of blocks is
    stable.  The relation is every cross pair whose SCCs share a block.
    The outcome reports whether the two initial states are related and,
    if not, a challenger move at the initial pair that has no answer in
    the returned relation.
    """
    game = _Game(a, b, cfg, include_fast=True)
    shift = len(game.va.members)
    block, count = [0] * (shift + len(game.vb.members)), 1
    while True:
        ids: dict = {}
        for views, base in ((game.va, 0), (game.vb, shift)):
            # sinks first: the fast successors of c are numbered below c
            closure: list[frozenset[int]] = []
            for c, below in enumerate(views.scc_fast):
                closure.append(frozenset([block[base + c]]).union(*(closure[d] for d in below)))
            weak: list[frozenset] = []
            for below, slow in zip(views.scc_fast, views.scc_slow):
                moves = [(label, b) for label, d in slow for b in closure[d]]
                weak.append(frozenset(moves).union(*(weak[d] for d in below)))
            # each side reads only its own blocks, so it can renumber them now
            signatures = zip(closure, weak)
            block[base : base + len(weak)] = [ids.setdefault(s, len(ids)) for s in signatures]
        if len(ids) == count:
            break
        count = len(ids)
    # the members of a block share one row (or column): the states of the
    # other side in that block
    in_a: dict[int, set[int]] = {}
    in_b: dict[int, set[int]] = {}
    for side, views, base in ((in_a, game.va, 0), (in_b, game.vb, shift)):
        for s, c in enumerate(views.scc):
            side.setdefault(block[base + c], set()).add(s)
    rows = {p: in_b[k] for k, ps in in_a.items() if k in in_b for p in ps}
    cols = {q: in_a[k] for k, qs in in_b.items() if k in in_a for q in qs}
    rel = frozenset((p, q) for p, row in rows.items() for q in row)
    return rel, _outcome(game, rows, cols)


def largest_slow(a: Lts, b: Lts, cfg: EquivConfig) -> tuple[Relation, CheckOutcome]:
    """Greatest slow bisimulation; as largest_fast_slow without the fast clause.

    A worklist holds first-system states.  Popping p deletes the pairs
    of row p that fail a clause; if any did, it re-queues p's weak slow
    predecessors, the only states whose checks read row p or a column
    that lost p.  The result is the unique greatest fixpoint.
    """
    game = _Game(a, b, cfg, include_fast=False)
    rows, cols, preds = _index(game)
    work = set(rows)
    while work:
        p = work.pop()
        failing = [q for q in rows.get(p, ()) if game.witness_for(rows, cols, p, q)]
        if failing:
            rows[p].difference_update(failing)
            for q in failing:
                cols[q].discard(p)
            work.update(preds[p])
    outcome = _outcome(game, rows, cols)
    # the columns go first, and each row as soon as its pairs are taken
    del cols
    return frozenset((p, q) for p in list(rows) for q in rows.pop(p)), outcome


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
