"""Core types for Bio-PEPA models with levels.

A model is a finite set of species definitions arranged in a cooperation
tree.  Each species is a choice between reaction capabilities (prefixes);
quantities are discretised into levels 0..N where N = ceil(M/H) for a
maximum count M and a global step size H.  Rate expressions and parameters
are carried as opaque strings: the analyses in this package work on the
capability relation only and never evaluate rates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


class ModelError(Exception):
    """A model construction violates well-definedness."""


class InvalidModelError(ModelError):
    """Validation produced a non-empty problem report."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class OverlappingActionsError(ModelError):
    """Species extension requires disjoint reaction names."""

    def __init__(self, actions: frozenset[str]):
        super().__init__("overlapping-actions({})".format(", ".join(sorted(actions))))
        self.actions = frozenset(actions)


class Role(str, enum.Enum):
    """Role a species plays in one reaction.

    Only reactants and products change level; activators, inhibitors and
    generic modifiers take part in a reaction without being consumed or
    produced.  The enum values are the concrete operator spellings used
    by the model language, and roles order as their spellings.  Render a
    role through ``.value``: formatting a member differs between versions.
    """

    REACTANT = "<<"
    PRODUCT = ">>"
    ACTIVATOR = "(+)"
    INHIBITOR = "(-)"
    GENERIC = "(.)"

    def level_delta(self, stoich: int) -> int:
        if self is Role.REACTANT:
            return -stoich
        if self is Role.PRODUCT:
            return stoich
        return 0


@dataclass(frozen=True)
class Prefix:
    """One reaction capability: action name, stoichiometry and role."""

    action: str
    stoich: int
    role: Role


@dataclass(frozen=True)
class SpeciesDef:
    """A sequential species component: a choice between prefixes.

    ``max_count`` is the maximum molecular count (or concentration
    ceiling) M used to derive the maximum level.
    """

    name: str
    prefixes: tuple[Prefix, ...]
    max_count: int

    def actions(self) -> frozenset[str]:
        return frozenset(p.action for p in self.prefixes)


@dataclass(frozen=True)
class Leaf:
    """A species placed in the model with its initial level."""

    species: str
    level: int


@dataclass(frozen=True, eq=False)
class Node:
    """Cooperation of two subtrees.

    ``coop`` is the explicit synchronisation set, or ``None`` for the
    shared-all combinator (synchronise on every action that occurs
    syntactically on both sides).  Trees compare, hash, print, copy and
    pickle without recursion, so a tree of any depth can be compared,
    shown and sent to another process.
    """

    left: "Leaf | Node"
    coop: frozenset[str] | None
    right: "Leaf | Node"

    def _preorder(self) -> tuple:
        """Each node's ``coop`` and each leaf, in pre-order.

        Every node has two children, so the sequence determines the tree.
        """
        out: list = []
        stack: list[Leaf | Node] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                out.append(node)
            else:
                out.append(node.coop)
                stack += [node.right, node.left]
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(self._preorder())

    def __repr__(self) -> str:
        """The dataclass ``repr``, written from an explicit stack."""
        parts: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, Node):
                parts.append(f"{type(item).__qualname__}(left=")
                stack += [")", item.right, f", coop={item.coop!r}, right=", item.left]
            else:
                parts.append(item if isinstance(item, str) else repr(item))
        return "".join(parts)

    def __reduce__(self):
        # copy and pickle take the flat pre-order sequence, not the tree
        return _tree_from_preorder, (self._preorder(),)


def _tree_from_preorder(items: tuple) -> "Leaf | Node":
    """The tree whose ``Node._preorder()`` is ``items``.

    Read backwards, each ``coop`` takes the two subtrees finished last:
    its left child first, then its right.
    """
    done: list[Leaf | Node] = []
    for item in reversed(items):
        if isinstance(item, Leaf):
            done.append(item)
        else:
            left = done.pop()
            done.append(Node(left, item, done.pop()))
    return done[0]


CompositionTree = Leaf | Node


def tree_leaves(tree: CompositionTree) -> Iterator[Leaf]:
    """The leaves from left to right, without recursion."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        else:
            stack += [node.right, node.left]


@dataclass(frozen=True)
class SystemDef:
    """A complete model: species definitions, composition tree, context.

    Species are kept in declaration order; that order fixes the state
    vector layout and the stoichiometry matrix rows everywhere else.
    ``params`` and ``rates`` are opaque context strings (never evaluated).
    """

    species: tuple[SpeciesDef, ...]
    tree: CompositionTree
    step_size: int = 1
    params: dict[str, str] = field(default_factory=dict)
    rates: dict[str, str] = field(default_factory=dict)

    @property
    def species_order(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.species)

    def species_map(self) -> dict[str, SpeciesDef]:
        return {s.name: s for s in self.species}

    def species_def(self, name: str) -> SpeciesDef:
        for s in self.species:
            if s.name == name:
                return s
        raise KeyError(name)

    def actions(self) -> frozenset[str]:
        out: set[str] = set()
        for s in self.species:
            out |= s.actions()
        return frozenset(out)

    def initial_levels(self) -> dict[str, int]:
        return {leaf.species: leaf.level for leaf in tree_leaves(self.tree)}


def max_level(sdef: SpeciesDef, step_size: int) -> int:
    """Maximum level N = ceil(M/H); the species then ranges over 0..N."""
    if step_size < 1:
        raise ValueError("step size must be at least 1")
    return -(-sdef.max_count // step_size)


def validate_species(sdef: SpeciesDef) -> list[str]:
    """Well-definedness report for a single species; empty means valid.

    A species must be a non-empty choice of prefixes with pairwise
    distinct action names and positive stoichiometries.
    """
    problems = []
    if not sdef.prefixes:
        problems.append(f"empty-definition({sdef.name})")
    seen: set[str] = set()
    for p in sdef.prefixes:
        if p.action in seen:
            problems.append(f"duplicate-action({p.action}) in species {sdef.name}")
        seen.add(p.action)
        if p.stoich < 1:
            problems.append(
                f"invalid-stoichiometry({p.action}) in species {sdef.name}: "
                f"{p.stoich} < 1"
            )
    if sdef.max_count < 1:
        problems.append(f"invalid-max-count({sdef.name}): {sdef.max_count} < 1")
    return problems


def validate_system(sys: SystemDef) -> list[str]:
    """Well-definedness report for a whole model; empty means valid.

    Checks every species definition, uniqueness of species both among
    definitions and among tree leaves, that every leaf refers to a
    defined species and every defined species is placed, that initial
    levels fit in 0..N, and that explicit cooperation sets only name
    actions occurring on both sides of their node.
    """
    return [problem for _, problem in _system_problems(sys)]


def _system_problems(sys: SystemDef) -> Iterator[tuple[str | None, str]]:
    """``validate_system``'s problems in order, each with the defined
    species it is about, or None when it is about the system as a whole."""
    if sys.step_size < 1:
        yield None, f"invalid-step-size: {sys.step_size} < 1"
    defs: dict[str, SpeciesDef] = {}
    valid: dict[str, bool] = {}  # like defs, the last definition wins
    for s in sys.species:
        if s.name in defs:
            yield s.name, f"repeated-species({s.name})"
        defs[s.name] = s
        species_problems = validate_species(s)
        valid[s.name] = not species_problems
        for problem in species_problems:
            yield s.name, problem

    placed: set[str] = set()
    for leaf in tree_leaves(sys.tree):
        if leaf.species not in defs:
            yield None, f"unknown-species({leaf.species})"
            continue
        if leaf.species in placed:
            yield leaf.species, f"repeated-species({leaf.species})"
        placed.add(leaf.species)
        if sys.step_size >= 1 and valid[leaf.species]:
            n = max_level(defs[leaf.species], sys.step_size)
            if not 0 <= leaf.level <= n:
                yield leaf.species, (
                    f"level-out-of-range({leaf.species}): "
                    f"initial {leaf.level} not in 0..{n}"
                )
    for name in defs:
        if name not in placed:
            yield name, f"unused-species({name})"

    # One post-order walk gives every subtree's action set, the smaller
    # child merged into the larger.  Nodes are first met in pre-order,
    # the order their problems are reported in.
    dangling: list[list[str]] = []  # per node, in pre-order
    done: list[set[str]] = []
    stack: list[tuple[CompositionTree, int | None]] = [(sys.tree, None)]
    while stack:
        node, met = stack.pop()
        if isinstance(node, Leaf):
            d = defs.get(node.species)
            done.append(set(d.actions()) if d is not None else set())
        elif met is None:
            stack += [(node, len(dangling)), (node.right, None), (node.left, None)]
            dangling.append([])
        else:
            right = done.pop()
            left = done.pop()
            if node.coop is not None:
                dangling[met] = [
                    f"dangling-coop-action({a})"
                    for a in sorted(node.coop)
                    if a not in left or a not in right
                ]
            big, small = (left, right) if len(left) >= len(right) else (right, left)
            big |= small
            done.append(big)
    for found in dangling:
        for problem in found:
            yield None, problem


def extend_species(a: SpeciesDef, b: SpeciesDef) -> SpeciesDef:
    """Extend species ``a`` with the reaction capabilities of ``b``.

    Requires disjoint action names; the result keeps ``a``'s prefixes
    followed by ``b``'s and is named ``a{b}``.  The maximum count is
    taken from ``a``: the extension augments behaviour, not quantity.
    """
    overlap = a.actions() & b.actions()
    if overlap:
        raise OverlappingActionsError(frozenset(overlap))
    return SpeciesDef(
        name=f"{a.name}{{{b.name}}}",
        prefixes=a.prefixes + b.prefixes,
        max_count=a.max_count,
    )


def compose(p: SystemDef, q: SystemDef) -> SystemDef:
    """Shared-all cooperation of two models with disjoint species.

    The composed tree synchronises on every action the two sides share.
    Contexts are merged; conflicting values for the same parameter or
    rate name are rejected.
    """
    problems = []
    if p.step_size != q.step_size:
        problems.append(
            f"step-size-mismatch: {p.step_size} != {q.step_size}"
        )
    params = dict(p.params)
    for k, v in q.params.items():
        if k in params and params[k] != v:
            problems.append(f"conflicting-param({k})")
        params[k] = v
    rates = dict(p.rates)
    for k, v in q.rates.items():
        if k in rates and rates[k] != v:
            problems.append(f"conflicting-rate({k})")
        rates[k] = v
    composed = SystemDef(
        species=p.species + q.species,
        tree=Node(p.tree, None, q.tree),
        step_size=p.step_size,
        params=params,
        rates=rates,
    )
    problems.extend(validate_system(composed))
    if problems:
        raise InvalidModelError(problems)
    return composed


@dataclass(frozen=True)
class EquivConfig:
    """Configuration of an equivalence check.

    ``fast``/``slow`` partition the reaction names.  ``delta`` is the set
    of comparison species kept by label filtering, given in canonical
    (first model) names.  ``aliases`` maps second-model species names onto
    their canonical counterparts.
    """

    fast: frozenset[str]
    slow: frozenset[str]
    delta: frozenset[str] = frozenset()
    aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        both = self.fast & self.slow
        if both:
            raise ValueError(
                "action-in-both-classes({})".format(", ".join(sorted(both)))
            )

    def canon(self, species: str) -> str:
        return self.aliases.get(species, species)
