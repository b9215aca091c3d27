"""Stoichiometric variable classification and the slow-check shortcut.

The stoichiometry matrix has one row per species (declaration order) and
one column per reaction instance, read from the reaction-instance table
that also steps the model.  In a shared-all model every reaction has one
instance, so the columns are the reactions; an explicit cooperation set
can split a reaction into instances with fewer participants, and each of
them gets its own column.  Conserved variables span the left null space;
slow variables are additionally unchanged by every fast reaction instance
but are not conserved; fast variables complete the basis.  Transforming
states to (slow, fast) coordinates drops the constant conserved components
and is a bijection on reachable states, which is what lets a slow-only
bisimulation check stand in for the full fast-slow check when the reduced
model has no fast variables and the slow variables are matching
individual species.

All linear algebra is exact integer arithmetic, as invariants are equality
assertions.  Each basis is chosen greedily on one ``rational.Echelon``,
which a candidate joins when its reduction leaves a non-zero remainder.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from operator import mul
from typing import Iterable

from . import rational
from .equivalence import (
    CheckOutcome,
    check_fast_slow_relation,
    check_slow_relation,
    relation_verdict,
)
from .model import EquivConfig, SystemDef
from .semantics import DEFAULT_STATE_CAP, Lts, _Compiled, build_lts

IntVector = tuple[int, ...]


class ClassificationError(Exception):
    pass


class StateCollisionError(ClassificationError):
    """Two reachable states mapped to one coordinate tuple.

    The transformed system must stay isomorphic to the original; a
    collision means the classification does not determine the dropped
    coordinates and is a bug signal, never something to mask.
    """

    def __init__(self, first: IntVector, second: IntVector):
        super().__init__(f"state-collision({first}, {second})")
        self.first = first
        self.second = second


class ShortcutPreconditionError(ClassificationError):
    def __init__(self, reasons: list[str]):
        super().__init__("; ".join(reasons))
        self.reasons = list(reasons)


class ShortcutLiftError(ClassificationError):
    def __init__(self, coords: IntVector, side: str):
        super().__init__(
            f"no reachable {side} state has transformed coordinates {coords}"
        )
        self.coords = coords
        self.side = side


@dataclass(frozen=True)
class StoichMatrix:
    """Species-by-reaction-instance integer stoichiometry.

    There is one column per reaction instance of the compiled model.
    Entries are -stoich for a reactant, +stoich for a product and zero
    for modifiers and non-participants.  Columns follow the first
    appearance of their action while scanning species declarations in
    order; the instances of one action follow the declaration order of
    their participants.  A column is named after its action when that
    action has one instance, and ``action[P1,P2,...]`` after its
    participants otherwise.  ``actions`` gives each column's action.
    """

    species: tuple[str, ...]
    reactions: tuple[str, ...]
    entries: tuple[IntVector, ...]
    actions: tuple[str, ...]

    @property
    def n_species(self) -> int:
        return len(self.species)

    def column(self, reaction: str) -> IntVector:
        """The column named ``reaction``."""
        j = self.reactions.index(reaction)
        return tuple(row[j] for row in self.entries)

    def columns_for(self, actions: frozenset[str]) -> list[list[int]]:
        """The submatrix of the instances of ``actions``."""
        cols = [j for j, a in enumerate(self.actions) if a in actions]
        return [[row[j] for j in cols] for row in self.entries]


def stoich_matrix(sys: SystemDef) -> StoichMatrix:
    """The stoichiometry of every reaction instance in the model's table.

    A reaction that an explicit cooperation set lets fire with only some
    of its participants has one column per instance, so the invariants
    read off the matrix hold on the transition system.
    """
    first: dict[str, int] = {}
    for sdef in sys.species:
        for p in sdef.prefixes:
            first.setdefault(p.action, len(first))
    columns = [
        (first[labels.action], tuple(sorted(i for i, _, _ in guards)), labels.action, changes)
        for guards, changes, _, labels in _Compiled(sys).rows
    ]
    columns.sort(key=lambda column: column[:2])
    count = Counter(action for _, _, action, _ in columns)
    order = sys.species_order
    names = []
    entries = [[0] * len(columns) for _ in order]
    for j, (_, participants, action, changes) in enumerate(columns):
        if count[action] == 1:
            names.append(action)
        else:
            names.append(f"{action}[{','.join(order[i] for i in participants)}]")
        for i, delta in changes:
            entries[i][j] = delta
    return StoichMatrix(
        order,
        tuple(names),
        tuple(tuple(row) for row in entries),
        tuple(action for _, _, action, _ in columns),
    )


def conserved_basis(m: StoichMatrix) -> list[IntVector]:
    """Integer basis of the left null space {y | y^T S = 0}.

    Canonical form is the reduced row echelon basis of the span, scaled
    to coprime integers.  When that form has negative entries but the
    span admits a non-negative basis, a spanning independent subset of
    the minimal semi-positive invariants is preferred, since conserved
    quantities are normally non-negative combinations of species.
    Every semiflow satisfies y^T S = 0, so it lies in the span already.
    """
    space = rational.left_nullspace(list(m.entries))
    if not space:
        return []
    canonical = rational.rref_int_basis(space)
    if all(x >= 0 for row in canonical for x in row):
        return canonical
    flows = rational.minimal_semiflows(list(m.entries))
    if flows is not None:
        flows.sort(key=lambda f: (sum(1 for x in f if x), f))
        chosen = _independent(rational.Echelon(), flows, len(canonical))
        if len(chosen) == len(canonical):
            return sorted(chosen, key=_leading_index)
    return canonical


def _independent(
    basis: rational.Echelon, candidates: Iterable[IntVector], size: int
) -> list[IntVector]:
    """The first candidates that raise the rank of ``basis``, each added
    to it, until its rank is ``size``."""
    chosen = []
    for vec in candidates:
        if basis.rank == size:
            break
        if basis.add(vec):
            chosen.append(vec)
    return chosen


def _leading_index(vector: IntVector) -> int:
    for i, x in enumerate(vector):
        if x:
            return i
    return len(vector)


def _unit(i: int, n: int) -> IntVector:
    return tuple(1 if j == i else 0 for j in range(n))


def slow_basis(
    m: StoichMatrix, cfg: EquivConfig, conserved: list[IntVector]
) -> list[IntVector]:
    """Vectors unchanged by every fast reaction, modulo the conserved span.

    Candidates are canonicalised preferring single-species unit vectors,
    comparison species (delta, via the alias map) first and declaration
    order otherwise; remaining slots are filled from the null space's
    canonical basis.  The unit vector of a species is unchanged by every
    fast reaction exactly when the species' row of the fast submatrix is
    zero.
    """
    fast_part = m.columns_for(cfg.fast)
    space = rational.left_nullspace(fast_part)
    n = m.n_species
    order = sorted(range(n), key=lambda i: cfg.canon(m.species[i]) not in cfg.delta)
    units = (_unit(i, n) for i in order if not any(fast_part[i]))
    basis = rational.Echelon(conserved)
    slow = _independent(basis, units, len(space))
    if basis.rank < len(space):
        slow += _independent(basis, rational.rref_int_basis(space), len(space))
    return slow


def complete_fast(
    m: StoichMatrix, conserved: list[IntVector], slow: list[IntVector]
) -> list[IntVector]:
    """Unit vectors completing (conserved, slow) to a basis of all species.

    The completion takes the species whose coordinates are not pivots of
    the stacked conserved and slow rows; by basis exchange the result is
    always nonsingular, and it reproduces the usual choice of leaving the
    fast intermediates as explicit coordinates.
    """
    n = m.n_species
    basis = rational.Echelon(conserved + slow)
    fast = [_unit(i, n) for i in range(n) if i not in basis.pivots]
    if not all(map(basis.add, fast)):
        raise ClassificationError("completion failed to reach full rank")
    return fast


def vector_name(vector: IntVector, species: tuple[str, ...]) -> str:
    """Human name for an integer combination, e.g. ``S+SE+P`` or ``2*E-I``."""
    parts = []
    for coeff, name in zip(vector, species):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        parts.append(f"{sign}{name}" if mag == 1 else f"{sign}{mag}*{name}")
    return "".join(parts) if parts else "0"


def unit_species(vector: IntVector, species: tuple[str, ...]) -> str | None:
    """The species name if the vector is a single-species unit vector."""
    hits = [i for i, x in enumerate(vector) if x]
    if len(hits) == 1 and vector[hits[0]] == 1:
        return species[hits[0]]
    return None


@dataclass(frozen=True)
class VariableClassification:
    """Conserved, slow and fast variable bases over the species."""

    species: tuple[str, ...]
    conserved: tuple[IntVector, ...]
    constants: tuple[int, ...]
    slow: tuple[IntVector, ...]
    fast: tuple[IntVector, ...]
    warnings: tuple[str, ...] = ()

    @property
    def n_s(self) -> int:
        return len(self.slow)

    @property
    def n_f(self) -> int:
        return len(self.fast)

    def slow_species(self) -> list[str | None]:
        return [unit_species(v, self.species) for v in self.slow]

    def coordinate_names(self) -> tuple[str, ...]:
        return tuple(vector_name(v, self.species) for v in self.slow + self.fast)


def classify(
    sys: SystemDef, cfg: EquivConfig, m: StoichMatrix | None = None
) -> VariableClassification:
    """Full classification pipeline for one model, whose matrix ``m`` may be prebuilt."""
    m = stoich_matrix(sys) if m is None else m
    conserved = conserved_basis(m)
    slow = slow_basis(m, cfg, conserved)
    fast = complete_fast(m, conserved, slow)
    if len(conserved) + len(slow) + len(fast) != m.n_species:
        raise ClassificationError("variable counts do not add up to the species count")
    initial = sys.initial_levels()
    levels = [initial[name] for name in m.species]
    constants = tuple(sum(map(mul, v, levels)) for v in conserved)
    warnings = []
    for v in conserved:
        if any(x < 0 for x in v):
            warnings.append(
                f"conserved vector {vector_name(v, m.species)} has negative entries"
            )
    return VariableClassification(
        species=m.species,
        conserved=tuple(conserved),
        constants=constants,
        slow=tuple(slow),
        fast=tuple(fast),
        warnings=tuple(warnings),
    )


def block_shape_ok(m: StoichMatrix, cfg: EquivConfig, cls: VariableClassification) -> bool:
    """Check the transformed matrix has the expected zero blocks.

    Rows reordered (conserved, slow, fast) and columns (slow, fast): the
    conserved rows must vanish entirely and the slow rows must vanish on
    the fast columns.
    """

    def vanish(vectors, actions: frozenset[str]) -> bool:
        columns = list(zip(*m.columns_for(actions)))
        return not any(sum(map(mul, v, c)) for v in vectors for c in columns)

    return vanish(cls.conserved, cfg.slow | cfg.fast) and vanish(cls.slow, cfg.fast)


def transform_lts(lts: Lts, cls: VariableClassification) -> Lts:
    """Rewrite states to (slow, fast) coordinates, keeping transitions.

    Conserved coordinates are constant on the reachable states and are
    dropped.  The map must be injective on the reachable states; a
    collision raises StateCollisionError.
    """
    vectors = cls.slow + cls.fast
    if rational.Echelon(cls.conserved + vectors).rank != len(cls.species):
        raise ClassificationError("classification vectors are not a basis")
    new_states = []
    seen: dict[IntVector, IntVector] = {}
    for state in lts.states:
        coords = tuple(sum(map(mul, v, state)) for v in vectors)
        if coords in seen:
            raise StateCollisionError(seen[coords], state)
        seen[coords] = state
        new_states.append(coords)
    return Lts(
        species_order=cls.coordinate_names(),
        states=tuple(new_states),
        initial=lts.initial,
        transitions=lts.transitions,
    )


def slow_sufficiency(
    cls_a: VariableClassification,
    cls_b: VariableClassification,
    cfg: EquivConfig,
) -> tuple[str, ...]:
    """Why the shortcut cannot be used; empty when it can.

    The second model must have no fast variables, both slow bases must be
    individual species, and those species must coincide under the alias
    map.
    """
    reasons = []
    if cls_b.n_f != 0:
        reasons.append("second model has fast variables")
    canon: list[set[str]] = []  # one per model whose slow basis is all species
    for side, cls in (("first", cls_a), ("second", cls_b)):
        names = cls.slow_species()
        reasons += [
            f"{side} model has a slow variable that is not an individual species: "
            + vector_name(vec, cls.species)
            for vec, name in zip(cls.slow, names)
            if name is None
        ]
        if None not in names:
            canon.append({cfg.canon(n) for n in names})
    if len(canon) == 2 and canon[0] != canon[1]:
        reasons.append(
            "slow species differ between the models: "
            f"{sorted(canon[0])} vs {sorted(canon[1])}"
        )
    return tuple(reasons)


@dataclass(frozen=True)
class ShortcutOutcome:
    """Verdicts of the slow check and of its fast-slow cross-validation,
    which also asks for the initial pair (``relation_verdict``)."""

    slow_outcome: CheckOutcome
    fastslow_outcome: CheckOutcome

    @property
    def outcome(self) -> CheckOutcome:
        if not self.slow_outcome.equivalent:
            return self.slow_outcome
        return self.fastslow_outcome


def _align_slow(
    cls_a: VariableClassification,
    cls_b: VariableClassification,
    cfg: EquivConfig,
) -> VariableClassification:
    """Reorder the second model's slow basis to match the first's species."""
    by_canon = {
        cfg.canon(name): vec
        for vec, name in zip(cls_b.slow, cls_b.slow_species())
        if name is not None
    }
    ordered = []
    for name in cls_a.slow_species():
        assert name is not None
        ordered.append(by_canon[cfg.canon(name)])
    return replace(cls_b, slow=tuple(ordered))


def shortcut_check(
    sys_a: SystemDef,
    sys_b: SystemDef,
    cfg: EquivConfig,
    relation: list[tuple[IntVector, IntVector]],
    max_states: int = DEFAULT_STATE_CAP,
) -> ShortcutOutcome:
    """Certify fast-slow bisimilarity via a slow-only check.

    The supplied relation is given in transformed coordinates: pairs of
    (slow..., fast...) for the first model against (slow...) for the
    second, with equal slow values inside every pair; both are checked
    before any transition system is built.  After the slow check succeeds
    on the transformed systems, the same relation is cross-validated with
    the direct fast-slow check on the original transition systems, which
    are built under the ``max_states`` cap, and ``relation_verdict`` turns
    that check into the verdict on the two models.
    """
    cls_a = classify(sys_a, cfg)
    cls_b = classify(sys_b, cfg)
    reasons = slow_sufficiency(cls_a, cls_b, cfg)
    if reasons:
        raise ShortcutPreconditionError(list(reasons))
    cls_b = _align_slow(cls_a, cls_b, cfg)
    n_s = cls_a.n_s
    pairs = [(tuple(coords_a), tuple(coords_b)) for coords_a, coords_b in relation]
    for coords_a, coords_b in pairs:
        if len(coords_a) != cls_a.n_s + cls_a.n_f or len(coords_b) != n_s:
            raise ShortcutPreconditionError(
                [f"coordinate pair ({coords_a}, {coords_b}) has the wrong arities"]
            )
        if coords_a[:n_s] != coords_b[:n_s]:
            raise ShortcutPreconditionError(
                [
                    "slow coordinates must be equal within each pair: "
                    f"{coords_a[:n_s]} vs {coords_b[:n_s]}"
                ]
            )
    lts_a = build_lts(sys_a, max_states=max_states)
    lts_b = build_lts(sys_b, max_states=max_states)
    t_a = transform_lts(lts_a, cls_a)
    t_b = transform_lts(lts_b, cls_b)
    lifted = set()
    for coords_a, coords_b in pairs:
        try:
            ia = t_a.index_of(coords_a)
        except KeyError:
            raise ShortcutLiftError(coords_a, "first-model") from None
        try:
            ib = t_b.index_of(coords_b)
        except KeyError:
            raise ShortcutLiftError(coords_b, "second-model") from None
        lifted.add((ia, ib))
    rel = frozenset(lifted)
    slow_outcome = fs = check_slow_relation(rel, t_a, t_b, cfg)
    if slow_outcome.equivalent:
        fs = check_fast_slow_relation(rel, lts_a, lts_b, cfg)
    # the transformed systems keep the original state indices
    return ShortcutOutcome(slow_outcome, relation_verdict(fs, rel, lts_a, lts_b))


def classification_report(sys: SystemDef, cfg: EquivConfig) -> dict:
    """JSON-friendly classification summary with stable key order."""
    m = stoich_matrix(sys)
    cls = classify(sys, cfg, m)

    def basis_entry(vector: IntVector, constant: int | None = None) -> dict:
        entry: dict = {"vector": list(vector), "name": vector_name(vector, cls.species)}
        species = unit_species(vector, cls.species)
        if species is not None:
            entry["species"] = species
        if constant is not None:
            entry["constant"] = constant
        return entry

    return {
        "species": list(cls.species),
        "reactions": list(m.reactions),
        "conserved": [
            basis_entry(v, c) for v, c in zip(cls.conserved, cls.constants)
        ],
        "slow": [basis_entry(v) for v in cls.slow],
        "fast": [basis_entry(v) for v in cls.fast],
        "blockShapeVerified": block_shape_ok(m, cfg, cls),
        "warnings": list(cls.warnings),
    }
