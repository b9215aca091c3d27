"""Capability semantics: single steps, transition systems, fast/slow views.

States of a well-defined model differ only in species levels, so a state
is a level vector over the declared species order.  A transition carries a
capability label: the action name plus one entry per participating
species, in species-name order, recording its role, its level at the
source state and its stoichiometry.  Reactants drop by their
stoichiometry, products rise, modifiers stay put; a reaction shared
under cooperation needs all sides to contribute and their entries are
merged.

Each model is compiled once into a table with one row per reaction
instance: an action together with the leaves that fire it jointly, each
with its state index, the levels ``lo..hi`` at which it can take part,
and its level delta.  The rows come from one walk of the cooperation
tree, since each species offers at most one prefix per action.  A step
checks every row's guards against the state and fires the rows that
pass; the stoichiometry matrix in ``classification`` reads the same rows.

A transition costs one label, so the table keeps what labels are made
of.  Each row interns its participants' entries by level and its labels
by the participants' levels, filling both on first use: a build makes
one ``LabelEntry`` per row, participant and level that occurs, and
nothing is allocated over a species' whole level range.  The rows are
kept in label order, so a step yields its moves already sorted.  That
order does not depend on the state: each species offers at most one
prefix per action, so two rows of one action that share a species give
it equal entries at any one state, and their labels compare as their
participants' names do.  Rows therefore sort once by action and names.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from operator import getitem, itemgetter
from typing import Iterable, NamedTuple

from .model import (
    CompositionTree,
    EquivConfig,
    InvalidModelError,
    Leaf,
    Prefix,
    Role,
    SpeciesDef,
    SystemDef,
    max_level,
    validate_system,
)

DEFAULT_STATE_CAP = 1_000_000

# A named tuple's generated ``__new__`` is a Python call; ``tuple.__new__``
# makes the same object without it, once per label and per transition.
_tuple_new = tuple.__new__

State = tuple[int, ...]


def format_state(state: State) -> str:
    """A level vector as ``(l1,l2,...)``, as in DOT nodes and witnesses."""
    return "({})".format(",".join(str(x) for x in state))


class StateSpaceLimitError(Exception):
    """Raised instead of silently truncating an exploding state space."""

    def __init__(self, limit: int):
        super().__init__(f"state-space-limit-exceeded({limit})")
        self.limit = limit


class UnpartitionedActionError(Exception):
    def __init__(self, action: str):
        super().__init__(f"unpartitioned-action({action})")
        self.action = action


class LabelEntry(NamedTuple):
    """Participation record of one species in one reaction instance."""

    species: str
    role: Role
    level: int
    stoich: int

    def __str__(self) -> str:
        return f"{self.species}:{self.role.value}({self.level},{self.stoich})"


class CapabilityLabel(NamedTuple):
    """Action name plus the participating-species entries in sorted order.

    Entries order as tuples: by species, role spelling, level and
    stoichiometry.  A label is its own sort key.
    """

    action: str
    entries: tuple[LabelEntry, ...]

    def __str__(self) -> str:
        inner = " ".join(str(e) for e in self.entries)
        return f"({self.action}, {{{inner}}})"


class Transition(NamedTuple):
    src: int
    label: CapabilityLabel
    dst: int


@dataclass(frozen=True)
class Lts:
    """Explicit transition system over the derivative set of the initial state."""

    species_order: tuple[str, ...]
    states: tuple[State, ...]
    initial: int
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        index = {s: i for i, s in enumerate(self.states)}
        if len(index) != len(self.states):
            raise ValueError("duplicate states in transition system")
        object.__setattr__(self, "_index", index)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)

    def index_of(self, state: Iterable[int]) -> int:
        key = tuple(state)
        idx = self._index.get(key)  # type: ignore[attr-defined]
        if idx is None:
            raise KeyError(f"state {key} is not reachable in this system")
        return idx

    def actions(self) -> frozenset[str]:
        return frozenset(t.label.action for t in self.transitions)


class _Entries(dict):
    """One participant's label entries by level, each made on first use."""

    __slots__ = ("species", "role", "stoich")

    def __init__(self, species: str, role: Role, stoich: int):
        super().__init__()
        self.species, self.role, self.stoich = species, role, stoich

    def __missing__(self, level: int) -> LabelEntry:
        entry = self[level] = LabelEntry(self.species, self.role, level, self.stoich)
        return entry


class _Labels(dict):
    """One row's labels by participant levels, each made on first use
    from the participants' interned entries.  A row with one participant
    keys its labels by that participant's level alone."""

    __slots__ = ("action", "entries", "single")

    def __init__(self, action: str, entries: tuple[_Entries, ...]):
        super().__init__()
        self.action, self.entries, self.single = action, entries, len(entries) == 1

    def __missing__(self, key) -> CapabilityLabel:
        levels = (key,) if self.single else key
        label = self[key] = _tuple_new(
            CapabilityLabel, (self.action, tuple(map(getitem, self.entries, levels)))
        )
        return label


def _instances(
    tree: CompositionTree, defs: dict[str, SpeciesDef]
) -> dict[str, list[tuple[tuple[str, Prefix], ...]]]:
    """Participants of every reaction instance of ``tree``, by action.

    One iterative post-order walk.  A leaf offers one instance per prefix.
    A node pairs every left instance of a cooperating action with every
    right one and lets the instances of all other actions through from
    either side; ``None`` cooperates on the actions both sides offer.
    The smaller child is merged into the larger, so a deep chain costs
    time linear in its size.
    """
    done: list[dict[str, list[tuple[tuple[str, Prefix], ...]]]] = []
    stack: list[tuple[CompositionTree, bool]] = [(tree, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Leaf):
            prefixes = defs[node.species].prefixes
            done.append({p.action: [((node.species, p),)] for p in prefixes})
        elif not children_done:
            stack += [(node, True), (node.right, False), (node.left, False)]
        else:
            right = done.pop()
            left = done.pop()
            big, small = (left, right) if len(left) >= len(right) else (right, left)
            for action, rows in small.items():
                others = big.get(action)
                if others is None:
                    big[action] = rows
                elif node.coop is None or action in node.coop:
                    big[action] = [a + b for a in others for b in rows]
                else:
                    others.extend(rows)
            done.append(big)
    return done[0]


def _guard(role: Role, stoich: int, limit: int) -> tuple[int, int]:
    """Levels ``lo..hi`` at which a participant can take part."""
    if role is Role.REACTANT or role is Role.ACTIVATOR:
        return stoich, limit
    if role is Role.PRODUCT:
        return 0, limit - stoich
    return 0, limit  # inhibitor or generic modifier


class _Compiled:
    """The reaction-instance table of one model, built once.

    ``rows`` holds one row per reaction instance, read off the
    cooperation tree by ``_instances``.  Each species has at most one
    prefix per action, so the instances do not depend on the state:
    stepping checks every row's guards against the levels and fires the
    rows that pass.  Each row interns its participants' label entries by
    level and its labels by the participants' levels, on first use, so
    a label costs one dict lookup once made and an entry is never made
    twice.  The rows are sorted by action and participant names, which
    at any one state is the order of their labels (see the module
    docstring), so ``moves`` comes out in label order.
    """

    def __init__(self, sys: SystemDef):
        problems = validate_system(sys)
        if problems:
            raise InvalidModelError(problems)
        self.order = sys.species_order
        index = {name: i for i, name in enumerate(self.order)}
        defs = sys.species_map()
        limit = {name: max_level(sdef, sys.step_size) for name, sdef in defs.items()}
        levels = sys.initial_levels()
        self.initial: State = tuple(levels[name] for name in self.order)
        rows = []
        for action, instances in _instances(sys.tree, defs).items():
            for parts in instances:
                # in species-name order, so each label's entries come out sorted
                parts = sorted(parts, key=lambda part: part[0])
                idx = [index[name] for name, _ in parts]
                deltas = [p.role.level_delta(p.stoich) for _, p in parts]
                guards = tuple(
                    (i, *_guard(p.role, p.stoich, limit[name]))
                    for i, (name, p) in zip(idx, parts)
                )
                entries = tuple(_Entries(name, p.role, p.stoich) for name, p in parts)
                changes = tuple((i, d) for i, d in zip(idx, deltas) if d)
                rows.append((guards, changes, itemgetter(*idx), _Labels(action, entries)))
        # each row is (guards, changes, levels, labels), as ``moves`` unpacks it
        rows.sort(key=lambda row: (row[3].action, [e.species for e in row[3].entries]))
        self.rows = tuple(rows)

    def moves(self, state: State) -> list[tuple[CapabilityLabel, State]]:
        """``(label, target)`` of every row enabled at ``state``, in
        label order."""
        out = []
        for guards, changes, levels, labels in self.rows:
            for i, lo, hi in guards:
                if not lo <= state[i] <= hi:
                    break
            else:
                label = labels[levels(state)]
                if changes:
                    target = list(state)
                    for i, delta in changes:
                        target[i] += delta
                    out.append((label, tuple(target)))
                else:
                    out.append((label, state))
        return out


def step(sys: SystemDef, state: State) -> list[tuple[CapabilityLabel, State]]:
    """All capability transitions from one state, deterministically ordered."""
    moves = _Compiled(sys).moves(tuple(state))
    return sorted(moves, key=lambda move: (move[1], move[0]))


def build_lts(sys: SystemDef, max_states: int = DEFAULT_STATE_CAP) -> Lts:
    """Breadth-first closure of the step relation from the initial state.

    State indexing is deterministic: discovery order, with the new
    successors of each state numbered in lexicographic order.
    Transitions are ordered by source, label and target; ``moves``
    already yields each state's labels in order.  Exceeding
    ``max_states`` raises instead of truncating.
    """
    compiled = _Compiled(sys)
    states: list[State] = [compiled.initial]
    index: dict[State, int] = {compiled.initial: 0}
    transitions: list[Transition] = []
    src = 0
    while src < len(states):
        moves = compiled.moves(states[src])
        fresh = [target for _, target in moves if target not in index]
        for target in sorted(fresh):
            if target not in index:  # two rows can reach one new state
                if len(states) >= max_states:
                    raise StateSpaceLimitError(max_states)
                index[target] = len(states)
                states.append(target)
        # rows differ in their participants, so the labels from one state
        # are distinct, and ``moves`` yields them in order
        for label, target in moves:
            transitions.append(_tuple_new(Transition, (src, label, index[target])))
        src += 1
    return Lts(
        species_order=compiled.order,
        states=tuple(states),
        initial=0,
        transitions=tuple(transitions),
    )


def filter_label(label: CapabilityLabel, cfg: EquivConfig) -> CapabilityLabel:
    """Restrict a label to the comparison species.

    Entries are renamed through the alias map first; only entries whose
    canonical species is in delta survive.  The action name is untouched.
    Renaming can reorder entries and make two of them equal, so the kept
    entries are sorted and each is kept once.
    """
    kept = set()
    for e in label.entries:
        name = cfg.canon(e.species)
        if name in cfg.delta:
            kept.add(e if name == e.species else e._replace(species=name))
    return CapabilityLabel(label.action, tuple(sorted(kept)))


def _fast_sccs(succ: tuple[tuple[int, ...], ...]) -> list[int]:
    """The strongly connected component of every state under a step
    relation, by an iterative Tarjan (1972).

    Components are numbered in the order Tarjan emits them, sinks first:
    a step out of a component enters one with a smaller number.
    """
    order = [-1] * len(succ)  # discovery number
    low = [0] * len(succ)
    scc = [-1] * len(succ)
    stack: list[int] = []
    found = count = 0
    for root in range(len(succ)):
        if order[root] >= 0:
            continue
        order[root] = low[root] = found
        found += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, steps = work[-1]
            for w in steps:
                if order[w] < 0:
                    order[w] = low[w] = found
                    found += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if scc[w] < 0 and order[w] < low[v]:  # w is still on the stack
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:  # v is the first member found
                    while scc[v] < 0:
                        scc[stack.pop()] = count
                    count += 1
    return scc


class WeakViews:
    """Fast and slow projections of an Lts under an action partition.

    The fast step relation drops labels entirely (one edge per state
    pair; ``fast_step_actions``, for diagnostics only, reads the action
    names off the Lts).  The slow strong view keeps the filtered label, which
    holds the action, and is keyed by it.  The weak slow view chains fast
    closure around one slow step.

    Only the graph of the fast strongly connected components (SCCs) is
    built up front: ``scc`` maps each state to its SCC, ``members`` each
    SCC to its states, ``scc_fast[c]`` holds the SCCs one fast step out
    of ``c`` (all numbered below ``c``) and ``scc_slow[c]`` the strong
    slow moves of its members as (filtered label, target SCC).  Fast
    closures and weak slow moves are built per SCC when first asked for,
    by a walk of that graph, and every member gets the same objects.
    """

    def __init__(self, lts: Lts, cfg: EquivConfig):
        self.lts = lts
        self.cfg = cfg
        fast_succ: list[set[int]] = [set() for _ in lts.states]
        slow: list[list[tuple[CapabilityLabel, int]]] = [[] for _ in lts.states]
        unpartitioned = set()
        for t in lts.transitions:
            action = t.label.action
            if action in cfg.fast:
                fast_succ[t.src].add(t.dst)
            elif action in cfg.slow:
                move = (filter_label(t.label, cfg), t.dst)
                if move not in slow[t.src]:
                    slow[t.src].append(move)
            else:
                unpartitioned.add(action)
        if unpartitioned:
            raise UnpartitionedActionError(min(unpartitioned))
        self._fast_succ = tuple(tuple(sorted(s)) for s in fast_succ)
        self._slow = tuple(tuple(moves) for moves in slow)
        self.scc = scc = _fast_sccs(self._fast_succ)
        self.members: list[list[int]] = [[] for _ in range(max(scc, default=-1) + 1)]
        for s, c in enumerate(scc):
            self.members[c].append(s)
        self.scc_fast = [
            frozenset(scc[dst] for s in members for dst in self._fast_succ[s]) - {c}
            for c, members in enumerate(self.members)
        ]
        self.scc_slow = [
            frozenset((label, scc[dst]) for s in members for label, dst in slow[s])
            for members in self.members
        ]
        n = len(self.members)
        self._closure: list[frozenset[int] | None] = [None] * n
        self._weak: list[dict[CapabilityLabel, frozenset[int]] | None] = [None] * n

    def _below(self, starts: Iterable[int]) -> set[int]:
        """The SCCs that fast steps reach from ``starts``, these included."""
        seen, stack = set(starts), list(starts)
        while stack:
            for d in self.scc_fast[stack.pop()]:
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        return seen

    def fast_steps(self, state: int) -> tuple[int, ...]:
        return self._fast_succ[state]

    def fast_step_actions(self, src: int, dst: int) -> tuple[str, ...]:
        """The fast actions of the steps from ``src`` to ``dst``, sorted;
        a scan of every transition, for diagnostics."""
        steps = self.lts.transitions
        actions = {t.label.action for t in steps if t.src == src and t.dst == dst}
        return tuple(sorted(actions & self.cfg.fast))

    def fast_closure(self, state: int) -> frozenset[int]:
        c = self.scc[state]
        cached = self._closure[c]
        if cached is None:
            below = self._below((c,))
            cached = self._closure[c] = frozenset(s for d in below for s in self.members[d])
        return cached

    def slow_strong(self, state: int) -> tuple[tuple[CapabilityLabel, int], ...]:
        return self._slow[state]

    def weak_slow_moves(self, state: int) -> dict[CapabilityLabel, frozenset[int]]:
        c = self.scc[state]
        cached = self._weak[c]
        if cached is None:
            steps: dict[CapabilityLabel, set[int]] = {}
            for mid in self._below((c,)):
                for label, d in self.scc_slow[mid]:
                    steps.setdefault(label, set()).add(d)
            cached = self._weak[c] = {
                label: frozenset(s for d in self._below(dsts) for s in self.members[d])
                for label, dsts in steps.items()
            }
        return cached

    def weak_slow_targets(self, state: int, label: CapabilityLabel) -> frozenset[int]:
        return self.weak_slow_moves(state).get(label, frozenset())


def lts_to_dict(lts: Lts) -> dict:
    """The document ``lts_to_json`` writes, as plain lists and dicts."""
    return {
        "species": list(lts.species_order),
        "states": [list(s) for s in lts.states],
        "initial": lts.initial,
        "transitions": [
            {
                "src": t.src,
                "action": t.label.action,
                "entries": [
                    {
                        "species": e.species,
                        "role": e.role.value,
                        "level": e.level,
                        "stoich": e.stoich,
                    }
                    for e in t.label.entries
                ],
                "dst": t.dst,
            }
            for t in lts.transitions
        ],
    }


def json_array(items: list[str], indent: str) -> str:
    """A JSON array of rendered items, laid out as ``json.dumps(indent=2)``
    lays out an array that opens at nesting ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _entry_json(e: LabelEntry) -> str:
    """One label entry as it appears inside a transition's ``entries``."""
    return (
        "{\n"
        f'          "species": {_json_str(e.species)},\n'
        f'          "role": {_json_str(e.role.value)},\n'
        f'          "level": {e.level},\n'
        f'          "stoich": {e.stoich}\n'
        "        }"
    )


def lts_to_json(lts: Lts) -> str:
    """``json.dumps(lts_to_dict(lts), indent=2)``, written without the
    pure-Python encoder that ``indent`` selects.

    Each distinct entry and label is rendered once; a label becomes a
    ``%`` template, so a transition costs one substitution of its source
    and target.
    """
    entries: dict[LabelEntry, str] = {}
    templates: dict[CapabilityLabel, str] = {}
    transitions = []
    for src, label, dst in lts.transitions:
        template = templates.get(label)
        if template is None:
            rendered = []
            for e in label.entries:
                text = entries.get(e)
                if text is None:
                    text = entries[e] = _entry_json(e)
                rendered.append(text)
            middle = (
                f'      "action": {_json_str(label.action)},\n'
                f'      "entries": {json_array(rendered, "      ")},\n'
            )
            template = templates[label] = (
                '{\n      "src": %d,\n' + middle.replace("%", "%%") + '      "dst": %d\n    }'
            )
        transitions.append(template % (src, dst))
    species = [_json_str(name) for name in lts.species_order]
    states = [json_array(list(map(str, s)), "    ") for s in lts.states]
    return (
        "{\n"
        f'  "species": {json_array(species, "  ")},\n'
        f'  "states": {json_array(states, "  ")},\n'
        f'  "initial": {lts.initial},\n'
        f'  "transitions": {json_array(transitions, "  ")}\n'
        "}"
    )


def lts_to_dot(lts: Lts, cfg: EquivConfig | None = None) -> str:
    """Graphviz rendering: level-vector nodes, action-labelled edges.

    With a configuration, edges also show the filtered label entries.
    """
    lines = ["digraph lts {", "  rankdir=LR;", "  node [shape=box];"]
    for i, state in enumerate(lts.states):
        shape = ' peripheries=2' if i == lts.initial else ""
        lines.append(f'  {i} [label="{format_state(state)}"{shape}];')
    for t in lts.transitions:
        if cfg is None:
            label = t.label.action
        else:
            inner = " ".join(str(e) for e in filter_label(t.label, cfg).entries)
            label = f"{t.label.action}; {{{inner}}}"
        lines.append(f'  {t.src} -> {t.dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
