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
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")


class ModelError(Exception):
    """A model construction violates well-definedness."""


class InvalidModelError(ModelError):
    """Validation produced a non-empty problem report; ``subjects[i]`` is the
    defined species ``problems[i]`` is about, or None."""

    def __init__(self, problems: list[str], subjects: list[str | None] | None = None):
        super().__init__("; ".join(problems))
        self.problems = list(problems)
        self.subjects = list(subjects) if subjects else [None] * len(self.problems)


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return preorder(self) == preorder(other)

    def __hash__(self) -> int:
        return hash(preorder(self))

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
        return _tree_from_preorder, (preorder(self),)


CompositionTree = Leaf | Node


def preorder(tree: CompositionTree) -> tuple:
    """Each node's ``coop`` and each leaf of ``tree``, in pre-order; a
    bare leaf is its own one-item sequence.

    Every node has two children, so the sequence determines the tree.
    """
    out: list = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, Leaf):
            out.append(item)
        else:
            out.append(item.coop)
            stack += [item.right, item.left]
    return tuple(out)


def fold(items: Sequence, leaf: Callable[[Leaf], T], node: Callable[..., T]) -> T:
    """The tree whose ``preorder`` is ``items``, combined bottom-up:
    ``leaf`` gives each leaf's value, ``node(coop, left, right)`` each
    node's from its children's.

    Read backwards, each ``coop`` takes the two values finished last: its
    left child's first, then its right.  So ``node`` runs on the nodes in
    reverse pre-order, after both its children.
    """
    done: list[T] = []
    for item in reversed(items):
        if isinstance(item, Leaf):
            done.append(leaf(item))
        else:
            left = done.pop()
            done.append(node(item, left, done.pop()))
    return done[0]


def _tree_from_preorder(items: tuple) -> CompositionTree:
    """The tree whose ``preorder`` is ``items``; pickles refer to it."""
    return fold(items, lambda leaf: leaf, lambda coop, left, right: Node(left, coop, right))


def tree_leaves(tree: CompositionTree) -> list[Leaf]:
    """The leaves from left to right."""
    return [item for item in preorder(tree) if isinstance(item, Leaf)]


@dataclass(frozen=True)
class SystemDef:
    """A complete model: species definitions, composition tree, context.

    Species are kept in declaration order; that order fixes the state
    vector layout and the stoichiometry matrix rows everywhere else.
    ``params`` and ``rates`` are opaque context strings (never evaluated).
    A model validates itself when it is made, by ``dataclasses.replace``
    too, and raises ``InvalidModelError`` if it is not well defined.
    """

    species: tuple[SpeciesDef, ...]
    tree: CompositionTree
    step_size: int = 1
    params: dict[str, str] = field(default_factory=dict)
    rates: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if found := list(_system_problems(self)):
            raise InvalidModelError([p for _, p in found], [s for s, _ in found])

    @property
    def species_order(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.species)

    def species_map(self) -> dict[str, SpeciesDef]:
        return {s.name: s for s in self.species}

    def species_def(self, name: str) -> SpeciesDef:
        return self.species_map()[name]

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


def _system_problems(sys: SystemDef) -> Iterator[tuple[str | None, str]]:
    """The model's well-definedness problems in order, each with the defined
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

    # One fold gives every subtree's action set, the smaller child merged
    # into the larger.  It meets the nodes in reverse pre-order, so their
    # problems are reported reversed.
    dangling: list[list[str]] = []

    def actions(leaf: Leaf) -> set[str]:
        d = defs.get(leaf.species)
        return set(d.actions()) if d is not None else set()

    def merge(coop: frozenset[str] | None, left: set[str], right: set[str]) -> set[str]:
        if coop is not None:
            dangling.append(
                [f"dangling-coop-action({a})" for a in sorted(coop) if a not in left or a not in right]
            )
        big, small = (left, right) if len(left) >= len(right) else (right, left)
        big |= small
        return big

    fold(preorder(sys.tree), actions, merge)
    for found in reversed(dangling):
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
    try:
        composed = SystemDef(
            species=p.species + q.species,
            tree=Node(p.tree, None, q.tree),
            step_size=p.step_size,
            params=params,
            rates=rates,
        )
    except InvalidModelError as err:
        problems += err.problems
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
