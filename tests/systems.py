"""Model builders shared across the test suite.

The competitive-inhibition pair: a full mechanism with explicit
enzyme/inhibitor binding (fast) and product formation (slow), and a
reduced model with a single slow reaction whose enzyme and inhibitor
appear as modifiers.  Plus the shared-fast-action counterexample, the
activated-producer congruence instance, and chains nested thousands of
levels deep.
"""

from __future__ import annotations

from fastslow import (
    EquivConfig,
    Leaf,
    Node,
    Prefix,
    Role,
    SpeciesDef,
    SystemDef,
)

R, PR, AC, IN, GM = Role.REACTANT, Role.PRODUCT, Role.ACTIVATOR, Role.INHIBITOR, Role.GENERIC


def chain(*leaves: Leaf) -> Leaf | Node:
    tree: Leaf | Node = leaves[0]
    for leaf in leaves[1:]:
        tree = Node(tree, None, leaf)
    return tree


def _producers(n: int) -> tuple[SpeciesDef, ...]:
    return tuple(SpeciesDef(f"S{i}", (Prefix(f"a{i}", 1, PR),), 1) for i in range(n))


def right_nested_chain(n: int) -> SystemDef:
    """S0 <*> (S1 <*> (... <*> S{n-1})), every species at level 0."""
    tree: Leaf | Node = Leaf(f"S{n - 1}", 0)
    for i in reversed(range(n - 1)):
        tree = Node(Leaf(f"S{i}", 0), None, tree)
    return SystemDef(_producers(n), tree)


def left_nested_chain(n: int) -> SystemDef:
    """((S0 <*> S1) <*> ...) <*> S{n-1}, every species at level 0."""
    return SystemDef(_producers(n), chain(*(Leaf(f"S{i}", 0) for i in range(n))))


def deep_chain(n: int, missing: str | None = "zz") -> tuple[tuple[SpeciesDef, ...], Node]:
    """Species and tree of the right-nested chain X0 <s0> (X1 <s1> (...
    X{n-1})) where X{i} offers s{i} and s{i-1}; every seventh set also
    names ``missing``, which no species offers, unless it is None.  Only
    without ``missing`` do they make a valid ``SystemDef``."""
    defs = []
    for i in range(n):
        actions = [f"s{i}", f"s{i - 1}"] if i else ["s0"]
        defs.append(SpeciesDef(f"X{i}", tuple(Prefix(a, 1, GM) for a in actions), 3))
    tree: Leaf | Node = Leaf(f"X{n - 1}", 0)
    for i in range(n - 2, -1, -1):
        coop = {f"s{i}", missing} if missing is not None and i % 7 == 0 else {f"s{i}"}
        tree = Node(Leaf(f"X{i}", 0), frozenset(coop), tree)
    return tuple(defs), tree


def inhibition_full(n: int = 5, m: int = 3, p: int = 0) -> SystemDef:
    """Substrate + enzyme + inhibitor mechanism with explicit compounds.

    a1/am1 unbind/bind the enzyme-inhibitor compound, b1/bm1 bind/unbind
    the substrate-enzyme compound, g turns the compound into product.
    Maximum counts are the conservation bounds (at least 1).
    """
    species = (
        SpeciesDef("S", (Prefix("b1", 1, R), Prefix("bm1", 1, PR)), n),
        SpeciesDef(
            "E",
            (
                Prefix("a1", 1, PR),
                Prefix("am1", 1, R),
                Prefix("b1", 1, R),
                Prefix("bm1", 1, PR),
                Prefix("g", 1, PR),
            ),
            max(m, 1),
        ),
        SpeciesDef("I", (Prefix("a1", 1, PR), Prefix("am1", 1, R)), max(p, 1)),
        SpeciesDef("P", (Prefix("g", 1, PR),), n),
        SpeciesDef(
            "EI", (Prefix("a1", 1, R), Prefix("am1", 1, PR)), max(min(m, p), 1)
        ),
        SpeciesDef(
            "SE",
            (Prefix("b1", 1, PR), Prefix("bm1", 1, R), Prefix("g", 1, R)),
            max(min(n, m), 1),
        ),
    )
    tree = chain(
        Leaf("S", n), Leaf("E", m), Leaf("I", p), Leaf("P", 0), Leaf("EI", 0), Leaf("SE", 0)
    )
    rates = {
        "a1": "k_a1 * EI",
        "am1": "k_am1 * E * I",
        "b1": "k_b1 * S * E",
        "bm1": "k_bm1 * SE",
        "g": "k_g * SE",
    }
    return SystemDef(species, tree, 1, {}, rates)


def inhibition_reduced(n: int = 5, m: int = 3, p: int = 0) -> SystemDef:
    """One slow reaction; enzyme activates it, inhibitor inhibits it."""
    species = (
        SpeciesDef("S'", (Prefix("g", 1, R),), n),
        SpeciesDef("E'", (Prefix("g", 1, AC),), max(m, 1)),
        SpeciesDef("I'", (Prefix("g", 1, IN),), max(p, 1)),
        SpeciesDef("P'", (Prefix("g", 1, PR),), n),
    )
    tree = chain(Leaf("S'", n), Leaf("E'", m), Leaf("I'", p), Leaf("P'", 0))
    return SystemDef(species, tree, 1, {}, {"g": "k_g * E' * S' / (K + I')"})


def inhibition_config() -> EquivConfig:
    return EquivConfig(
        fast=frozenset({"a1", "am1", "b1", "bm1"}),
        slow=frozenset({"g"}),
        delta=frozenset({"P"}),
        aliases={"P'": "P"},
    )


def inhibition_relation(n: int, m: int, p: int) -> list[tuple[tuple, tuple]]:
    """Closed-form relation pairing full and reduced states by product level.

    Full states are (S,E,I,P,EI,SE) = (n-(k+j), m-(j+l), p-l, k, l, j) and
    reduced states (S',E',I',P') = (n-k, m, p, k), over 0 <= k <= n,
    0 <= j <= min(m, n-k), 0 <= l <= p, j+l <= m.
    """
    pairs = []
    for k in range(n + 1):
        for j in range(min(m, n - k) + 1):
            for l in range(p + 1):
                if j + l <= m:
                    pairs.append(
                        (
                            (n - (k + j), m - (j + l), p - l, k, l, j),
                            (n - k, m, p, k),
                        )
                    )
    return pairs


def inhibition_relation_transformed(n: int, m: int, p: int) -> list[tuple[tuple, tuple]]:
    """The same relation in (P, EI, SE) against (P',) coordinates."""
    pairs = []
    for k in range(n + 1):
        for j in range(min(m, n - k) + 1):
            for l in range(p + 1):
                if j + l <= m:
                    pairs.append(((k, l, j), (k,)))
    return pairs


def burst_systems() -> tuple[SystemDef, SystemDef, SystemDef, EquivConfig]:
    """Two bursty species equivalent up to fast-action identity, plus a
    context that shares one of the fast actions (the congruence failure
    instance)."""
    s1 = SystemDef(
        (SpeciesDef("S1", (Prefix("a", 2, PR), Prefix("g", 2, R)), 2),),
        Leaf("S1", 0),
    )
    s2 = SystemDef(
        (SpeciesDef("S2", (Prefix("b", 2, PR), Prefix("g", 2, R)), 2),),
        Leaf("S2", 0),
    )
    ctx = SystemDef(
        (SpeciesDef("S", (Prefix("a", 1, R),), 1),),
        Leaf("S", 1),
    )
    cfg = EquivConfig(fast=frozenset({"a", "b"}), slow=frozenset({"g"}))
    return s1, s2, ctx, cfg


def producer_systems(
    level: int = 0, max_count: int = 3
) -> tuple[SystemDef, SystemDef, SystemDef, EquivConfig]:
    """A plain producer, the same producer with an extra fast activator
    self-loop, and a disjoint consumer context (the congruence success
    instance)."""
    c1 = SystemDef(
        (SpeciesDef("C1", (Prefix("a", 1, PR),), max_count),),
        Leaf("C1", level),
    )
    c2 = SystemDef(
        (SpeciesDef("C2", (Prefix("a", 1, PR), Prefix("b", 1, AC)), max_count),),
        Leaf("C2", level),
    )
    ctx = SystemDef(
        (SpeciesDef("C", (Prefix("d", 1, R),), 2),),
        Leaf("C", 2),
    )
    cfg = EquivConfig(fast=frozenset({"b"}), slow=frozenset({"a", "d"}))
    return c1, c2, ctx, cfg


def pathway(k: int, tokens: int) -> tuple[SystemDef, EquivConfig]:
    """Linear enzyme pathway S0 -> S1 -> ... -> Sk, one enzyme per step.

    bind_i: S(i-1) + Ei -> Ci and unbind_i: Ci -> S(i-1) + Ei are fast,
    cat_i: Ci -> Si + Ei is slow; one unit of each enzyme and ``tokens``
    units of substrate in S0, composed as a right-nested chain.
    """
    species = []
    for i in range(k + 1):
        prefixes = [Prefix(f"cat{i}", 1, PR)] if i else []
        if i < k:
            prefixes += [Prefix(f"bind{i + 1}", 1, R), Prefix(f"unbind{i + 1}", 1, PR)]
        species.append(SpeciesDef(f"S{i}", tuple(prefixes), tokens))
    leaves = [Leaf("S0", tokens)]
    for i in range(1, k + 1):
        bind, unbind, cat = f"bind{i}", f"unbind{i}", f"cat{i}"
        enzyme = (Prefix(bind, 1, R), Prefix(unbind, 1, PR), Prefix(cat, 1, PR))
        compound = (Prefix(bind, 1, PR), Prefix(unbind, 1, R), Prefix(cat, 1, R))
        species += [SpeciesDef(f"E{i}", enzyme, 1), SpeciesDef(f"C{i}", compound, 1)]
        leaves += [Leaf(f"E{i}", 1), Leaf(f"C{i}", 0), Leaf(f"S{i}", 0)]
    tree = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        tree = Node(leaf, None, tree)
    cfg = EquivConfig(
        fast=frozenset(
            f"{kind}{i}" for kind in ("bind", "unbind") for i in range(1, k + 1)
        ),
        slow=frozenset(f"cat{i}" for i in range(1, k + 1)),
        delta=frozenset({f"S{k}"}),
    )
    return SystemDef(tuple(species), tree), cfg
