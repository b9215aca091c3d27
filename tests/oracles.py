"""Independent oracles: deliberately naive re-computations of the
relations the library builds, used to cross-check the real implementations.
They share no code with the package beyond the data types."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from fastslow import (
    CapabilityLabel,
    Diagnostic,
    EquivConfig,
    LabelEntry,
    Leaf,
    Lts,
    Node,
    ParseError,
    Role,
    SourceSpan,
    StoichMatrix,
    SystemDef,
    Transition,
    filter_label,
    max_level,
)


_SYMBOLS = ("<*>", "(+)", "(-)", "(.)", "<<", ">>", ";", "=", "+", "(", ")", ",", "[", "]", "<", ">")


def lex_oracle(text: str) -> list[tuple[str, str, SourceSpan]]:
    """The model lexer as a character loop: ``(kind, text, span)`` for each
    token, ending with ``eof``, or a ParseError with every diagnostic.
    Symbols are tried longest first, one spelling at a time; line and
    column are counted as the loop goes."""
    tokens: list[tuple[str, str, SourceSpan]] = []
    diagnostics: list[Diagnostic] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)

    def span(start: int, end: int) -> SourceSpan:
        # no token spans a newline, so its column follows from its start
        return SourceSpan(line, start - line_start + 1, start, end)

    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if text.startswith("//", pos):
            pos = text.find("\n", pos)
            if pos < 0:
                pos = n
            continue
        start = pos
        if ch.isalpha():
            while pos < n and (text[pos].isalnum() or text[pos] in "_'"):
                pos += 1
            tokens.append(("ident", text[start:pos], span(start, pos)))
            continue
        if "0" <= ch <= "9":
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            tokens.append(("int", text[start:pos], span(start, pos)))
            continue
        if ch == '"':
            pos += 1
            while pos < n and text[pos] not in '"\n':
                pos += 1
            if pos >= n or text[pos] != '"':
                diagnostics.append(Diagnostic(span(start, pos), "unterminated string"))
                break
            pos += 1
            tokens.append(("string", text[start + 1 : pos - 1], span(start, pos)))
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, pos):
                pos += len(sym)
                tokens.append(("symbol", sym, span(start, pos)))
                break
        else:
            diagnostics.append(
                Diagnostic(span(start, pos + 1), f"unexpected character {ch!r}")
            )
            pos += 1
    tokens.append(("eof", "", span(n, n)))
    if diagnostics:
        raise ParseError(diagnostics)
    return tokens


def step_tree_oracle(
    sys: SystemDef, state: tuple[int, ...]
) -> list[tuple[CapabilityLabel, tuple[int, ...]]]:
    """All capability transitions from ``state``, by walking the
    cooperation tree recursively at this one state.

    A leaf offers its enabled prefixes; a node fires the actions of its
    cooperation set (``None``: the actions both subtrees name) only
    jointly, pairing every enabled left move with every enabled right one,
    and lets every other action through from either side."""
    defs = sys.species_map()
    index = {name: i for i, name in enumerate(sys.species_order)}

    def actions(tree) -> frozenset[str]:
        if isinstance(tree, Leaf):
            return defs[tree.species].actions()
        return actions(tree.left) | actions(tree.right)

    def moves(tree) -> dict[str, list[dict]]:
        if isinstance(tree, Leaf):
            level = state[index[tree.species]]
            top = max_level(defs[tree.species], sys.step_size)
            out: dict[str, list[dict]] = {}
            for p in defs[tree.species].prefixes:
                if p.role in (Role.REACTANT, Role.ACTIVATOR):
                    enabled = p.stoich <= level <= top
                elif p.role is Role.PRODUCT:
                    enabled = 0 <= level <= top - p.stoich
                else:
                    enabled = 0 <= level <= top
                if enabled:
                    out.setdefault(p.action, []).append({tree.species: p})
            return out
        left, right = moves(tree.left), moves(tree.right)
        coop = tree.coop
        if coop is None:
            coop = actions(tree.left) & actions(tree.right)
        out = {}
        for side in (left, right):
            for action, found in side.items():
                if action not in coop:
                    out.setdefault(action, []).extend(found)
        for action in coop:
            if action in left and action in right:
                out[action] = [{**m1, **m2} for m1 in left[action] for m2 in right[action]]
        return out

    result = []
    for action, found in moves(sys.tree).items():
        for move in found:
            target = list(state)
            entries = set()
            for name, p in move.items():
                i = index[name]
                entries.add(LabelEntry(name, p.role, state[i], p.stoich))
                target[i] += p.role.level_delta(p.stoich)
            result.append((CapabilityLabel(action, tuple(sorted(entries))), tuple(target)))
    return result


def build_lts_oracle(sys: SystemDef) -> Lts:
    """The transition system of ``sys`` by breadth-first search over
    ``step_tree_oracle``.

    States are numbered in discovery order; each state's successors are
    sorted and the new ones numbered in that order, and its transitions
    are sorted by label and target."""
    levels = sys.initial_levels()
    states = [tuple(levels[name] for name in sys.species_order)]
    index = {states[0]: 0}
    transitions = []
    src = 0
    while src < len(states):
        moves = step_tree_oracle(sys, states[src])
        for target in sorted(target for _, target in moves):
            if target not in index:
                index[target] = len(states)
                states.append(target)
        for label, target in sorted(moves):
            transitions.append(Transition(src, label, index[target]))
        src += 1
    return Lts(sys.species_order, tuple(states), 0, tuple(transitions))


def dangling_coop_oracle(sys: SystemDef) -> list[str]:
    """The ``dangling-coop-action`` problems of ``sys``, in pre-order:
    at every node with a cooperation set, the actions of both subtrees
    are collected again by walking all of their leaves."""
    defs = sys.species_map()

    def actions(tree) -> set[str]:
        stack, out = [tree], set()
        while stack:
            node = stack.pop()
            if isinstance(node, Node):
                stack += [node.left, node.right]
            elif node.species in defs:
                out |= defs[node.species].actions()
        return out

    problems = []
    stack = [sys.tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            continue
        if node.coop is not None:
            left, right = actions(node.left), actions(node.right)
            for a in sorted(node.coop):
                if a not in left or a not in right:
                    problems.append(f"dangling-coop-action({a})")
        stack += [node.right, node.left]
    return problems


def swapped(cfg: EquivConfig) -> EquivConfig:
    """The same configuration seen from the other side: aliases inverted
    (they must be injective), comparison species renamed through them."""
    inv: dict[str, str] = {}
    for src, dst in cfg.aliases.items():
        if dst in inv:
            raise ValueError(f"alias map not invertible at {dst}")
        inv[dst] = src
    delta = frozenset(inv.get(d, d) for d in cfg.delta)
    return EquivConfig(cfg.fast, cfg.slow, delta, inv)


def warshall_closure(n: int, edges: set[tuple[int, int]]) -> list[set[int]]:
    """Reflexive-transitive closure by the triple loop."""
    reach = [{i} for i in range(n)]
    for a, b in edges:
        reach[a].add(b)
    for k in range(n):
        for i in range(n):
            if k in reach[i]:
                reach[i] |= reach[k]
    return reach


def fast_edges(lts: Lts, cfg: EquivConfig) -> set[tuple[int, int]]:
    return {
        (t.src, t.dst) for t in lts.transitions if t.label.action in cfg.fast
    }


def weak_slow_oracle(
    lts: Lts, cfg: EquivConfig
) -> dict[tuple[int, str, CapabilityLabel], set[int]]:
    """All weak slow moves: fast closure, one slow step, fast closure."""
    closure = warshall_closure(lts.n_states, fast_edges(lts, cfg))
    slow = [
        (t.src, t.label.action, filter_label(t.label, cfg), t.dst)
        for t in lts.transitions
        if t.label.action in cfg.slow
    ]
    out: dict[tuple[int, str, CapabilityLabel], set[int]] = {}
    for i in range(lts.n_states):
        for src, action, label, dst in slow:
            if src in closure[i]:
                out.setdefault((i, action, label), set()).update(closure[dst])
    return out


def strong_bisim_oracle(lts: Lts) -> set[tuple[int, int]]:
    """Largest strong bisimulation over full capability labels, by the
    straightforward delete-violating-pairs fixpoint."""
    n = lts.n_states
    moves: list[list] = [[] for _ in range(n)]
    for t in lts.transitions:
        moves[t.src].append((t.label, t.dst))

    def matched(rel, src_moves, dst_moves, flip):
        for label, d1 in src_moves:
            found = False
            for other, d2 in dst_moves:
                if other == label:
                    pair = (d2, d1) if flip else (d1, d2)
                    if pair in rel:
                        found = True
                        break
            if not found:
                return False
        return True

    rel = {(i, j) for i in range(n) for j in range(n)}
    changed = True
    while changed:
        changed = False
        for i, j in sorted(rel):
            if not matched(rel, moves[i], moves[j], False) or not matched(
                rel, moves[j], moves[i], True
            ):
                rel.discard((i, j))
                changed = True
    return rel


def violation_oracle(a: Lts, b: Lts, cfg: EquivConfig, include_fast: bool):
    """``violated(rel, p, q)`` for the pairs of ``a`` and ``b``: whether
    some strong move of one side (slow, or fast when ``include_fast``)
    has no weak answer of the other side landing in ``rel``."""

    def moves(lts: Lts):
        fast = fast_edges(lts, cfg)
        strong = [set() for _ in range(lts.n_states)]
        for t in lts.transitions:
            if t.label.action in cfg.slow:
                strong[t.src].add((t.label.action, filter_label(t.label, cfg), t.dst))
        if include_fast:
            for src, dst in fast:
                strong[src].add((None, None, dst))
        answers = weak_slow_oracle(lts, cfg)
        if include_fast:
            for i, reach in enumerate(warshall_closure(lts.n_states, fast)):
                answers[(i, None, None)] = reach
        return strong, answers

    strong_a, answers_a = moves(a)
    strong_b, answers_b = moves(b)

    def violated(rel, p: int, q: int) -> bool:
        for action, label, p2 in strong_a[p]:
            if not any((p2, q2) in rel for q2 in answers_b.get((q, action, label), ())):
                return True
        for action, label, q2 in strong_b[q]:
            if not any((p2, q2) in rel for p2 in answers_a.get((p, action, label), ())):
                return True
        return False

    return violated


def largest_sweep_oracle(
    a: Lts, b: Lts, cfg: EquivConfig, include_fast: bool
) -> set[tuple[int, int]]:
    """Largest fast-slow (``include_fast``) or slow bisimulation between
    ``a`` and ``b``: start from the full cross product and sweep it,
    deleting every violated pair (``violation_oracle``) until a sweep
    deletes nothing."""
    violated = violation_oracle(a, b, cfg, include_fast)
    rel = {(p, q) for p in range(a.n_states) for q in range(b.n_states)}
    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            if violated(rel, *pair):
                rel.discard(pair)
                changed = True
    return rel


def _rref(vectors, width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination over the rationals: the non-zero rows of
    the reduced row echelon form of ``vectors`` (each ``width`` long)
    and their pivot columns."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    pivots: list[int] = []
    for col in range(width):
        top = len(pivots)
        hit = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[top], rows[hit] = rows[hit], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def null_oracle(columns, width: int) -> list[list[Fraction]]:
    """Basis of the vectors (each ``width`` long) orthogonal to every one
    of ``columns``: one per free column of their reduced row echelon form."""
    reduced, pivots = _rref(columns, width)
    space = []
    for free in (c for c in range(width) if c not in pivots):
        y = [Fraction(0)] * width
        y[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            y[p] = -row[free]
        space.append(y)
    return space


def coprime_oracle(row) -> tuple[int, ...]:
    """A rational row with a positive leading entry as coprime integers."""
    scale = lcm(*(x.denominator for x in row))
    ints = [int(x * scale) for x in row]
    divisor = gcd(*ints)
    return tuple(x // divisor for x in ints)


def slow_basis_oracle(
    m: StoichMatrix, cfg: EquivConfig, conserved: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The slow basis by its defining selection, re-eliminating at every
    step: in delta-first species order, take each unit vector that lies
    in the left null space of the fast columns and raises the rank of
    (conserved, chosen); fill the remaining slots from the null space's
    reduced row echelon basis, scaled to coprime integers."""
    n = len(m.species)
    fast_columns = [
        [row[j] for row in m.entries]
        for j, action in enumerate(m.actions)
        if action in cfg.fast
    ]
    space = null_oracle(fast_columns, n)
    target = len(space) - len(conserved)
    if target <= 0:
        return []
    chosen: list[tuple[int, ...]] = []

    def rank(vectors) -> int:
        return len(_rref(vectors, n)[1])

    def independent(vec) -> bool:
        stack = list(conserved) + chosen
        return rank(stack + [vec]) > rank(stack)

    in_delta = [i for i, name in enumerate(m.species) if cfg.canon(name) in cfg.delta]
    rest = [i for i in range(n) if i not in in_delta]
    for i in in_delta + rest:
        if len(chosen) == target:
            break
        e = tuple(1 if j == i else 0 for j in range(n))
        if rank(space + [e]) == rank(space) and independent(e):
            chosen.append(e)
    if len(chosen) < target:
        for row in _rref(space, n)[0]:
            if len(chosen) == target:
                break
            vec = coprime_oracle(row)
            if independent(vec):
                chosen.append(vec)
    return chosen
