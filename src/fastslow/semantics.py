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
and its level delta.  The rows come from one ``model.fold`` over the
cooperation tree's ``model.preorder``, since each species offers at most
one prefix per action; the stoichiometry matrix in ``classification``
reads the same rows.

A step runs one Python function generated from the rows, which tests
every row's guards as inline comparisons and fires the rows that pass.
Its source holds integer literals and fixed identifiers only, and the
names it needs reach it through its namespace: a model's names are data
and never parsed as code.  The function is generated on the first step,
so a table read only for its stoichiometry costs no compilation.  Each
table compiles its own source, and each row is one statement, so that
compiling costs about what the steps of a few hundred transitions save.

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

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterable, Iterator, NamedTuple

from .model import (
    CompositionTree,
    EquivConfig,
    Leaf,
    Prefix,
    Role,
    SpeciesDef,
    SystemDef,
    fold,
    max_level,
    preorder,
)

DEFAULT_STATE_CAP = 1_000_000
_PART_ROWS = 1024  # compiling holds about 28 KB a row, so a step function is made in parts

# A named tuple's generated ``__new__`` is a Python call; ``tuple.__new__``
# makes the same object without it, once per label and once per filtered
# label.
_tuple_new = tuple.__new__

State = tuple[int, ...]


def format_state(state: State) -> str:
    """A level vector as ``(l1,l2,...)``, as in DOT nodes and witnesses."""
    return "({})".format(",".join(map(str, state)))


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


@dataclass(frozen=True)
class Lts:
    """Explicit transition system over the derivative set of the initial
    state, its transitions held in three flat columns.

    State ``s``'s transitions are ``labels[starts[s]:starts[s + 1]]``, in
    label order, and the same slice of ``targets`` holds their target
    state indices.  ``starts`` has one offset per state and then the
    number of transitions.  Equal labels are one shared object, so a
    transition costs a slot in each column and no object of its own.
    The first ``index_of`` builds the index of states.
    """

    species_order: tuple[str, ...]
    states: tuple[State, ...]
    initial: int
    starts: tuple[int, ...]
    labels: tuple[CapabilityLabel, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        starts = self.starts
        if not (
            len(starts) == len(self.states) + 1
            and starts[0] == 0
            and starts[-1] == len(self.labels) == len(self.targets)
        ):
            raise ValueError("transition columns do not match the states")

    @cached_property
    def _index(self) -> dict[State, int]:
        index = {s: i for i, s in enumerate(self.states)}
        if len(index) != len(self.states):
            raise ValueError("duplicate states in transition system")
        return index

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.labels)

    def index_of(self, state: Iterable[int]) -> int:
        key = tuple(state)
        idx = self._index.get(key)
        if idx is None:
            raise KeyError(f"state {key} is not reachable in this system")
        return idx


class _Entries(dict):
    """One participant's label entries by level, each made on first use."""

    __slots__ = ("species", "role", "stoich")

    def __init__(self, species: str, role: Role, stoich: int):
        super().__init__()
        self.species, self.role, self.stoich = species, role, stoich

    def __missing__(self, level: int) -> LabelEntry:
        entry = self[level] = LabelEntry(self.species, self.role, level, self.stoich)
        return entry


class _Row(NamedTuple):
    """One reaction instance: its action, and for each participant, in
    species-name order, the state index and levels ``lo..hi`` at which it
    can take part (``guards``) and its interned label entries; ``changes``
    holds the nonzero level deltas by state index."""

    action: str
    guards: tuple[tuple[int, int, int], ...]
    changes: tuple[tuple[int, int], ...]
    entries: tuple[_Entries, ...]


def _instances(
    tree: CompositionTree, defs: dict[str, SpeciesDef]
) -> dict[str, list[tuple[tuple[str, Prefix], ...]]]:
    """Participants of every reaction instance of ``tree``, by action.

    One ``fold`` over the tree's ``preorder``.  A leaf offers one instance
    per prefix.  A node pairs every left instance of a cooperating action
    with every right one and lets the instances of all other actions
    through from either side; ``None`` cooperates on the actions both
    sides offer.  The smaller child is merged into the larger, so a deep
    chain costs time linear in its size.
    """

    def offers(leaf: Leaf) -> dict[str, list[tuple[tuple[str, Prefix], ...]]]:
        return {p.action: [((leaf.species, p),)] for p in defs[leaf.species].prefixes}

    def merge(coop: frozenset[str] | None, left: dict, right: dict) -> dict:
        big, small = (left, right) if len(left) >= len(right) else (right, left)
        for action, rows in small.items():
            others = big.get(action)
            if others is None:
                big[action] = rows
            elif coop is None or action in coop:
                big[action] = [a + b for a in others for b in rows]
            else:
                others.extend(rows)
        return big

    return fold(preorder(tree), offers, merge)


def _guard(role: Role, stoich: int, limit: int) -> tuple[int, int]:
    """Levels ``lo..hi`` at which a participant can take part."""
    if role is Role.REACTANT or role is Role.ACTIVATOR:
        return stoich, limit
    if role is Role.PRODUCT:
        return 0, limit - stoich
    return 0, limit  # inhibitor or generic modifier


class _Compiled:
    """The reaction-instance table of one model, built once.

    ``rows`` holds one ``_Row`` per reaction instance, read off the
    cooperation tree by ``_instances``.  Each species has at most one
    prefix per action, so the instances do not depend on the state.  The
    rows are sorted by action and participant names, which at any one
    state is the order of their labels (see the module docstring).

    ``moves`` steps one state.  It is a Python function generated from
    the rows on first use, so a table that only ``stoich_matrix`` reads
    costs no generation.  The function tests each row's guards inline,
    looks its label up in the row's label dict (made from the row's
    interned entries on first use) and applies the row's changes; it
    yields its moves in label order.  ``limits`` holds each species'
    maximum level, the bound a guard need not test.
    """

    def __init__(self, sys: SystemDef):
        self.order = sys.species_order
        index = {name: i for i, name in enumerate(self.order)}
        defs = sys.species_map()
        limit = {name: max_level(sdef, sys.step_size) for name, sdef in defs.items()}
        levels = sys.initial_levels()
        self.initial: State = tuple(levels[name] for name in self.order)
        self.limits = tuple(limit[name] for name in self.order)
        rows = []
        for action, instances in _instances(sys.tree, defs).items():
            for parts in instances:
                # in species-name order, so each label's entries come out sorted
                parts = sorted(parts, key=lambda part: part[0])
                guards = tuple(
                    (index[name], *_guard(p.role, p.stoich, limit[name])) for name, p in parts
                )
                deltas = [(index[name], p.role.level_delta(p.stoich)) for name, p in parts]
                changes = tuple((i, d) for i, d in deltas if d)
                entries = tuple(_Entries(name, p.role, p.stoich) for name, p in parts)
                rows.append(_Row(action, guards, changes, entries))
        rows.sort(key=lambda row: (row.action, [e.species for e in row.entries]))
        self.rows = tuple(rows)

    @cached_property
    def moves(self) -> Callable[[State], list[tuple[CapabilityLabel, State]]]:
        """``(label, target)`` of every row enabled at a state, in label
        order: the generated step function."""
        return _generate(self.rows, self.limits)


def _generate(
    rows: tuple[_Row, ...], limits: tuple[int, ...]
) -> Callable[[State], list[tuple[CapabilityLabel, State]]]:
    """The step function of a reaction table, as Python source compiled once.

    The source holds integer literals and fixed identifiers only; action
    names, label dicts and entries reach it through its namespace, so no
    name a model chooses is ever parsed as code.  A state's levels lie
    within ``0..limit``, so a guard compares only against its other
    bounds.  A row is one statement: its label is looked up, or made and
    stored, in one expression.  The source grows with the rows' guards
    and changes, not with rows times species: a target is spelled out as
    a tuple only when that is no longer than setting the changed levels
    in a copy of the state.  Rows compile in parts of ``_PART_ROWS``.
    """
    space: dict[str, object] = {"new": _tuple_new, "Label": CapabilityLabel}
    width = len(limits)
    unpack = "".join(f"x{i}, " for i in range(width)) + "= state"
    sources: list[list[str]] = []
    for r, row in enumerate(rows):
        if r % _PART_ROWS == 0:
            lines = ["def moves(state):", "    " + unpack, "    out = []"]
            sources.append(lines)
        tests = []
        for i, lo, hi in row.guards:
            low = f"{lo} <= " if lo else ""
            high = f" <= {hi}" if hi < limits[i] else ""
            if low or high:
                tests.append(f"{low}x{i}{high}")
        lines.append("    if " + (" and ".join(tests) or "True") + ":")
        space[f"A{r}"], space[f"L{r}"] = row.action, {}
        key = made = ""
        for j, ((i, _, _), entries) in enumerate(zip(row.guards, row.entries)):
            space[f"E{r}_{j}"] = entries
            key += f"x{i}, "
            made += f"E{r}_{j}[x{i}], "
        label = f"L{r}.get(k := ({key})) or L{r}.setdefault(k, new(Label, (A{r}, ({made}))))"
        if not row.changes:
            target = "state"
        elif width <= 2 * len(row.changes) + 2:
            change = dict(row.changes)
            target = "".join(f"x{i} + {change[i]}, " if i in change else f"x{i}, " for i in range(width))
            target = f"({target})"
        else:
            lines.append("        t = list(state)")
            lines += [f"        t[{i}] = x{i} + {d}" for i, d in row.changes]
            target = "tuple(t)"
        lines.append(f"        out.append(({label}, {target}))")
    parts = []
    for lines in sources:
        exec(compile("\n".join(lines + ["    return out"]), "<generated step>", "exec"), space)
        parts.append(space.pop("moves"))  # so the namespace does not hold its function
    return parts[0] if len(parts) == 1 else lambda state: [m for part in parts for m in part(state)]


def build_lts(sys: SystemDef, max_states: int = DEFAULT_STATE_CAP) -> Lts:
    """Breadth-first closure of the step relation from the initial state.

    State indexing is deterministic: discovery order, with the new
    successors of each state numbered in lexicographic order.
    Each state's transitions go to the label and target columns in label
    order, which is the order ``moves`` yields them in, and its end
    offset to ``starts``.  Exceeding ``max_states`` raises instead of
    truncating.
    """
    compiled = _Compiled(sys)
    moves = compiled.moves
    states: list[State] = [compiled.initial]
    index: dict[State, int] = {compiled.initial: 0}
    starts = [0]
    labels: list[CapabilityLabel] = []
    targets: list[int] = []
    # ``states`` grows while it is walked, and the walk reaches the new ones
    for state in states:
        out = moves(state)
        fresh = []
        for _, target in out:
            if target not in index:
                fresh.append(target)
        if fresh:
            fresh.sort()
            for target in fresh:
                if target not in index:  # two rows can reach one new state
                    if len(states) >= max_states:
                        raise StateSpaceLimitError(max_states)
                    index[target] = len(states)
                    states.append(target)
        # rows differ in their participants, so the labels from one state
        # are distinct, and ``moves`` yields them in order
        labels += [label for label, _ in out]
        targets += [index[target] for _, target in out]
        starts.append(len(labels))
    return Lts(
        species_order=compiled.order,
        states=tuple(states),
        initial=0,
        starts=tuple(starts),
        labels=tuple(labels),
        targets=tuple(targets),
    )


def _filter_entry(e: LabelEntry, cfg: EquivConfig) -> LabelEntry | None:
    """``e`` renamed through the alias map, or None when its canonical
    species is not in delta."""
    name = cfg.canon(e.species)
    if name not in cfg.delta:
        return None
    return e if name == e.species else e._replace(species=name)


class _Filtered(dict):
    """Labels restricted to the comparison species of one configuration,
    by label, for one caller.

    Entries are renamed through the alias map first; only entries whose
    canonical species is in delta survive, and the action name is
    untouched.  Renaming can reorder entries and make two of them equal,
    so the kept entries are sorted and each is kept once.

    Each distinct label is filtered once and each distinct entry once,
    and equal filtered labels are one object.  A transition system has
    far fewer distinct entries than labels, and far fewer labels than
    transitions.  One object per filtered label leaves the cyclic
    collector far fewer live objects to walk (124 instead of 28,962 on
    inhibition (120,15,6) under ``delta: P``); a new object per label
    made ``WeakViews`` there 10 % to twice as slow, the more so the more
    the process holds."""

    __slots__ = ("cfg", "entries", "labels")

    def __init__(self, cfg: EquivConfig):
        super().__init__()
        self.cfg = cfg
        self.entries: dict[LabelEntry, LabelEntry | None] = {}
        self.labels: dict[tuple, CapabilityLabel] = {}

    def __missing__(self, label: CapabilityLabel) -> CapabilityLabel:
        entries = self.entries
        kept = set()
        for e in label.entries:
            if e not in entries:
                entries[e] = _filter_entry(e, self.cfg)
            kept.add(entries[e])
        kept.discard(None)
        key = (label.action, tuple(sorted(kept)))
        out = self.labels.get(key)
        if out is None:
            out = self.labels[key] = _tuple_new(CapabilityLabel, key)
        self[label] = out
        return out


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
    names off the source state's transitions).  The slow strong view
    keeps the filtered label, which holds the action, and is keyed by
    it.  The weak slow view chains fast closure around one slow step.

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
        fast_actions, slow_actions = cfg.fast, cfg.slow
        fast_succ: list[tuple[int, ...]] = []
        slow: list[tuple[tuple[CapabilityLabel, int], ...]] = []
        unpartitioned = set()
        filtered = _Filtered(cfg)
        # one pass over both columns, taken state by state
        steps_of = zip(lts.labels, lts.targets)
        lo = 0
        for hi in lts.starts[1:]:
            steps: set[int] = set()
            # the distinct slow moves, in first-seen order
            moves: dict[tuple[CapabilityLabel, int], None] = {}
            # an action name hashes once; a label only for a slow move
            for label, dst in islice(steps_of, hi - lo):
                action = label.action
                if action in fast_actions:
                    steps.add(dst)
                elif action in slow_actions:
                    moves[filtered[label], dst] = None
                else:
                    unpartitioned.add(action)
            lo = hi
            fast_succ.append(tuple(sorted(steps)))
            slow.append(tuple(moves))
        if unpartitioned:
            raise UnpartitionedActionError(min(unpartitioned))
        self._fast_succ = tuple(fast_succ)
        self._slow = tuple(slow)
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
        a scan of ``src``'s transitions, for diagnostics."""
        lts = self.lts
        lo, hi = lts.starts[src], lts.starts[src + 1]
        steps = zip(lts.labels[lo:hi], lts.targets[lo:hi])
        actions = {label.action for label, target in steps if target == dst}
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
    """The document ``lts_to_json`` writes, read back as plain lists and
    dicts."""
    return json.loads(lts_to_json(lts))


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
    """The JSON document of ``lts``: ``species``, ``states``, ``initial``
    and ``transitions``, each with ``src``, ``action``, ``entries`` and
    ``dst``.  Laid out as by ``json.dumps(..., indent=2)``, without the
    pure-Python encoder that ``indent`` selects: the pieces of
    ``lts_json_pieces``, joined once."""
    return "".join(lts_json_pieces(lts))


def lts_json_pieces(lts: Lts) -> Iterator[str]:
    """The pieces of ``lts_to_json``'s document, in order.

    Each distinct entry is rendered once, and so is each distinct label's
    body, from its ``"action"`` through the ``"dst": `` key.  Each state
    index is rendered once, and each source's head (the end of the
    transition before, the opening brace and ``"src"``) once per state.
    A transition yields its source's head, its label's body and its
    target's index.
    """
    names = [str(i) for i in range(lts.n_states)]
    species = [_json_str(name) for name in lts.species_order]
    yield "{\n"
    yield f'  "species": {json_array(species, "  ")},\n'
    states = json_array([json_array(list(map(str, s)), "    ") for s in lts.states], "  ")
    yield f'  "states": {states},\n'
    yield f'  "initial": {lts.initial},\n'
    moves = _transition_pieces(lts, names)
    head = next(moves, None)
    if head is None:
        yield '  "transitions": []\n}'
        return
    # the first transition closes none before it
    yield '  "transitions": [' + head[len("\n    },") :]
    yield from moves
    yield "\n    }\n  ]\n}"


def _transition_pieces(lts: Lts, names: list[str]) -> Iterator[str]:
    """Each transition's head, body and target index, in order; every
    head, the first one's too, starts by closing a transition before it."""
    starts, labels, targets = lts.starts, lts.labels, lts.targets
    entries: dict[LabelEntry, str] = {}
    bodies: dict[CapabilityLabel, str] = {}
    for src, name in enumerate(names):
        lo, hi = starts[src], starts[src + 1]
        if lo == hi:
            continue
        head = '\n    },\n    {\n      "src": ' + name
        for label, dst in zip(labels[lo:hi], targets[lo:hi]):
            body = bodies.get(label)
            if body is None:
                rendered = [entries.get(e) or entries.setdefault(e, _entry_json(e)) for e in label.entries]
                body = bodies[label] = (
                    f',\n      "action": {_json_str(label.action)},\n'
                    f'      "entries": {json_array(rendered, "      ")},\n      "dst": '
                )
            yield head
            yield body
            yield names[dst]


def lts_to_dot(lts: Lts, cfg: EquivConfig | None = None) -> str:
    """Graphviz rendering: level-vector nodes, action-labelled edges; the
    pieces of ``lts_dot_pieces``, joined once."""
    return "".join(lts_dot_pieces(lts, cfg))


def lts_dot_pieces(lts: Lts, cfg: EquivConfig | None = None) -> Iterator[str]:
    """The pieces of ``lts_to_dot``'s document, in order.

    With a configuration, edges also show the filtered label entries;
    each distinct filtered label is rendered once.  Each state index is
    rendered once, and so is each source's head; an edge yields its
    source's head, its target's index and its label's text.
    """
    names = [str(i) for i in range(lts.n_states)]
    yield "digraph lts {\n  rankdir=LR;\n  node [shape=box];\n"
    for i, state in enumerate(lts.states):
        shape = ' peripheries=2' if i == lts.initial else ""
        yield f'  {names[i]} [label="{format_state(state)}"{shape}];\n'
    starts, labels, targets = lts.starts, lts.labels, lts.targets
    filtered = None if cfg is None else _Filtered(cfg)
    # an edge's label text, by action, or by filtered label under a
    # configuration
    tails: dict = {}
    for src, name in enumerate(names):
        lo, hi = starts[src], starts[src + 1]
        if lo == hi:
            continue
        head = f"  {name} -> "
        for label, dst in zip(labels[lo:hi], targets[lo:hi]):
            key = label.action if filtered is None else filtered[label]
            tail = tails.get(key)
            if tail is None:
                text = label.action
                if filtered is not None:
                    inner = " ".join(map(str, key.entries))
                    text = f"{text}; {{{inner}}}"
                tail = tails[key] = f' [label="{text}"];\n'
            yield head
            yield names[dst]
            yield tail
    yield "}\n"
