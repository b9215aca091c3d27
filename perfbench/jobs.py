"""Seeded job lists for the fastslow benchmark.

A job is one ``fastslow`` command line plus the input files it reads and
the facts a correct answer must satisfy.  Models are written out as text
in the model language, so the program only ever sees generated inputs.
Everything here is plain Python with no import of ``fastslow``: the
expected answers come from closed forms and from the model descriptions
below, never from the program under test.

Sizes are stratified.  Each workload has fixed tiers; the seed jitters
the parameters inside a tier and picks the variant (mode, removed pair),
so different seeds give different inputs with the same cost profile.
The largest job of each workload is a fixed anchor, because it sets the
peak memory and the tail latency.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

REACTANT, PRODUCT, ACTIVATOR, INHIBITOR = "<<", ">>", "(+)", "(-)"

# Identical copies of one job per cycle that form the tail cluster of
# ``explore`` and ``certify``.  verdict_p90_s is the job time about a tenth
# of the cycle from the top; the cluster covers that rank with a margin of
# about three jobs on either side, so the percentile reads the time of one
# job instead of jumping between jobs of different sizes.
TAIL_COPIES = 8


@dataclass(frozen=True)
class Species:
    name: str
    max_level: int
    prefixes: tuple[tuple[str, int, str], ...]  # (action, stoichiometry, role)


@dataclass(frozen=True)
class Model:
    """A model description: species in declaration order, initial levels
    and the composition written in the model language."""

    species: tuple[Species, ...]
    initial: tuple[int, ...]
    system: str

    def text(self) -> str:
        lines = [f"max {s.name} = {s.max_level};" for s in self.species]
        for s in self.species:
            summands = " + ".join(f"({a},{k}) {role} {s.name}" for a, k, role in s.prefixes)
            lines.append(f"species {s.name} = {summands};")
        lines.append(f"system = {self.system};")
        return "\n".join(lines) + "\n"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.species)


def shared_all(species: tuple[Species, ...], initial: tuple[int, ...]) -> Model:
    """Left-nested shared-all cooperation of all species."""
    system = " <*> ".join(f"{s.name}[{lvl}]" for s, lvl in zip(species, initial))
    return Model(species, initial, system)


# model families -----------------------------------------------------------


def inhibition_full(n: int, m: int, p: int) -> Model:
    """Competitive inhibition with explicit compounds: S, E, I, P, EI, SE.

    a1/am1 release/form the enzyme-inhibitor compound, b1/bm1 form/release
    the substrate-enzyme compound (all fast), g turns SE into product
    (slow).  Maximum levels are the conservation bounds.
    """
    species = (
        Species("S", n, (("b1", 1, REACTANT), ("bm1", 1, PRODUCT))),
        Species(
            "E",
            max(m, 1),
            (
                ("a1", 1, PRODUCT),
                ("am1", 1, REACTANT),
                ("b1", 1, REACTANT),
                ("bm1", 1, PRODUCT),
                ("g", 1, PRODUCT),
            ),
        ),
        Species("I", max(p, 1), (("a1", 1, PRODUCT), ("am1", 1, REACTANT))),
        Species("P", n, (("g", 1, PRODUCT),)),
        Species("EI", max(min(m, p), 1), (("a1", 1, REACTANT), ("am1", 1, PRODUCT))),
        Species(
            "SE",
            max(min(n, m), 1),
            (("b1", 1, PRODUCT), ("bm1", 1, REACTANT), ("g", 1, REACTANT)),
        ),
    )
    return shared_all(species, (n, m, p, 0, 0, 0))


def inhibition_reduced(n: int, m: int, p: int) -> Model:
    """One slow reaction; the enzyme activates it, the inhibitor inhibits it."""
    species = (
        Species("S'", n, (("g", 1, REACTANT),)),
        Species("E'", max(m, 1), (("g", 1, ACTIVATOR),)),
        Species("I'", max(p, 1), (("g", 1, INHIBITOR),)),
        Species("P'", n, (("g", 1, PRODUCT),)),
    )
    return shared_all(species, (n, m, p, 0))


def inhibition_states(n: int, m: int, p: int) -> list[tuple[int, ...]]:
    """Closed form of the reachable full states, indexed by (k, j, l):
    k products made, j substrate-enzyme and l enzyme-inhibitor compounds."""
    return [
        (n - (k + j), m - (j + l), p - l, k, l, j)
        for k, j, l in _inhibition_index(n, m, p)
    ]


def _inhibition_index(n: int, m: int, p: int) -> list[tuple[int, int, int]]:
    return [
        (k, j, l)
        for k in range(n + 1)
        for j in range(min(m, n - k) + 1)
        for l in range(p + 1)
        if j + l <= m
    ]


def inhibition_relation(n: int, m: int, p: int) -> list[list[list[int]]]:
    """The paper's closed-form relation: full states against the reduced
    state with the same product level."""
    return [
        [[n - (k + j), m - (j + l), p - l, k, l, j], [n - k, m, p, k]]
        for k, j, l in _inhibition_index(n, m, p)
    ]


def inhibition_relation_transformed(n: int, m: int, p: int) -> list[list[list[int]]]:
    """The same relation in (P, EI, SE) against (P') coordinates."""
    return [[[k, l, j], [k]] for k, j, l in _inhibition_index(n, m, p)]


def removable_pair(n: int, m: int, p: int, rng: random.Random) -> int:
    """Index of a relation pair whose removal breaks both games.

    The full state (k, j, l) must have k >= 1 and a slow predecessor
    (k-1, j+1, l), so the slow challenge into it is unanswerable; its
    fast class then has more than one member, so a fast challenge into it
    fails too.  The initial pair (index 0) is never chosen.  The product
    level k stays within one of n/2: the check stops at the first failing
    pair, so this keeps the job's cost independent of the seed.
    """
    index = _inhibition_index(n, m, p)
    present = set(index)
    choices = [
        i
        for i, (k, j, l) in enumerate(index)
        if abs(k - n // 2) <= 1 and k >= 1 and (k - 1, j + 1, l) in present
    ]
    return rng.choice(choices)


def pathway(k: int, tokens: int) -> Model:
    """Linear enzyme pathway S0 -> S1 -> ... -> Sk, one enzyme per step.

    bind_i: S(i-1) + Ei -> Ci and unbind_i: Ci -> S(i-1) + Ei are fast,
    cat_i: Ci -> Si + Ei is slow.  One unit of each enzyme, ``tokens``
    units of substrate in S0.  The composition nests to the right, so its
    tree is as deep as the species count.
    """
    species = []
    for i in range(k + 1):
        prefixes = []
        if i >= 1:
            prefixes.append((f"cat{i}", 1, PRODUCT))
        if i < k:
            prefixes += [(f"bind{i + 1}", 1, REACTANT), (f"unbind{i + 1}", 1, PRODUCT)]
        species.append(Species(f"S{i}", tokens, tuple(prefixes)))
    for i in range(1, k + 1):
        species.append(
            Species(
                f"E{i}",
                1,
                ((f"bind{i}", 1, REACTANT), (f"unbind{i}", 1, PRODUCT), (f"cat{i}", 1, PRODUCT)),
            )
        )
        species.append(
            Species(
                f"C{i}",
                1,
                ((f"bind{i}", 1, PRODUCT), (f"unbind{i}", 1, REACTANT), (f"cat{i}", 1, REACTANT)),
            )
        )
    initial = (tokens,) + (0,) * k + (1, 0) * k
    names = [f"S0[{tokens}]"]
    for i in range(1, k + 1):
        names += [f"E{i}[1]", f"C{i}[0]", f"S{i}[0]"]
    system = names[-1]
    for leaf in reversed(names[:-1]):
        system = f"{leaf} <*> ({system})"
    return Model(tuple(species), initial, system)


def pathway_state_count(k: int, tokens: int) -> int:
    """Sum over c occupied enzymes of C(k, c) * C(T - c + k, k)."""
    return sum(comb(k, c) * comb(tokens - c + k, k) for c in range(min(k, tokens) + 1))


def pathway_states(k: int, tokens: int) -> list[tuple[int, ...]]:
    """Reachable states in declaration order (S0..Sk, E1, C1, ..., Ek, Ck):
    any set of occupied enzymes, the free tokens spread over S0..Sk."""
    out = []
    for c in range(min(k, tokens) + 1):
        for occupied in combinations(range(k), c):
            enzymes = []
            for i in range(k):
                enzymes += [0, 1] if i in occupied else [1, 0]
            for spread in _compositions(tokens - c, k + 1):
                out.append(spread + tuple(enzymes))
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def pathway_config(k: int) -> str:
    fast = ", ".join(f"bind{i}, unbind{i}" for i in range(1, k + 1))
    slow = ", ".join(f"cat{i}" for i in range(1, k + 1))
    return f"fast: {fast}\nslow: {slow}\ndelta: S{k}\n"


def pathway_conserved(k: int) -> list[tuple[int, ...]]:
    """Hand basis of the conserved quantities: all substrate tokens
    (free or bound) and, per enzyme, Ei + Ci."""
    n = 3 * k + 1
    tokens = [0] * n
    for i in range(k + 1):
        tokens[i] = 1
    for i in range(k):
        tokens[k + 2 + 2 * i] = 1
    basis = [tuple(tokens)]
    for i in range(k):
        vec = [0] * n
        vec[k + 1 + 2 * i] = vec[k + 2 + 2 * i] = 1
        basis.append(tuple(vec))
    return basis


def burst_models(n: int) -> tuple[Model, Model, Model]:
    """Two bursty species that differ only in the name of their fast
    action, and a context of ``n`` units that shares the first one."""
    s1 = shared_all((Species("S1", 2, (("a", 2, PRODUCT), ("g", 2, REACTANT))),), (0,))
    s2 = shared_all((Species("S2", 2, (("b", 2, PRODUCT), ("g", 2, REACTANT))),), (0,))
    ctx = shared_all((Species("S", n, (("a", 1, REACTANT),)),), (n,))
    return s1, s2, ctx


def producer_models(n: int, level: int) -> tuple[Model, Model, Model]:
    """A producer of at most three units, the same producer with a fast
    activator self-loop, and a disjoint consumer context of ``n`` units."""
    c1 = shared_all((Species("C1", 3, (("a", 1, PRODUCT),)),), (level,))
    c2 = shared_all(
        (Species("C2", 3, (("a", 1, PRODUCT), ("b", 1, ACTIVATOR))),), (level,)
    )
    ctx = shared_all((Species("C", n, (("d", 1, REACTANT),)),), (n,))
    return c1, c2, ctx


def explicit_coop_model() -> Model:
    """ROADMAP item 4(a): ``(A[1] <> B[0]) <*> C[1]``.

    A and B do not synchronise with each other, so ``r`` fires either as
    A with C or as B with C.  A+B is therefore not conserved: hand
    enumeration gives the four reachable states listed below.
    """
    species = (
        Species("A", 1, (("r", 1, REACTANT),)),
        Species("B", 1, (("r", 1, PRODUCT),)),
        Species("C", 1, (("r", 1, ACTIVATOR),)),
    )
    return Model(species, (1, 0, 1), "(A[1] <> B[0]) <*> C[1]")


EXPLICIT_COOP_STATES = [(1, 0, 1), (0, 0, 1), (1, 1, 1), (0, 1, 1)]

INHIBITION_CONFIG = "fast: a1, am1, b1, bm1\nslow: g\ndelta: P\nalias: P' = P\n"
INHIBITION_SELF_CONFIG = "fast: a1, am1, b1, bm1\nslow: g\ndelta: P\n"
BURST_CONFIG = "fast: a, b\nslow: g\n"
PRODUCER_CONFIG = "fast: b\nslow: a, d\n"
EXPLICIT_COOP_CONFIG = "fast:\nslow: r\n"


# jobs ---------------------------------------------------------------------


@dataclass
class Job:
    """One command.  ``argv`` names files as ``{w}/file``; the runner
    substitutes its working directory.  ``files`` are the inputs to write
    first, ``outputs`` the files the command writes.  ``expect`` holds the
    facts the checker verifies; ``known_defect`` names a documented bug
    the job is expected to expose."""

    name: str
    argv: list[str]
    files: dict[str, str]
    expect: dict
    outputs: list[str] = field(default_factory=list)
    known_defect: str | None = None


class _Builder:
    def __init__(self) -> None:
        self.jobs: list[Job] = []
        self.files: dict[str, str] = {}

    def file(self, name: str, text: str) -> str:
        if self.files.get(name, text) != text:
            raise ValueError(f"two different inputs named {name}")
        self.files[name] = text
        return "{w}/" + name

    def add(self, name: str, argv: list[str], expect: dict, **kw) -> None:
        inputs = [a[4:] for a in argv if a.startswith("{w}/")]
        needed = {f: self.files[f] for f in inputs if f in self.files}
        self.jobs.append(Job(name, argv, needed, expect, **kw))


def _jitter(rng: random.Random, value: int, spread: int, low: int, high: int) -> int:
    return max(low, min(high, value + rng.randint(-spread, spread)))


def _inh_params(rng: random.Random, s: int, e: int, i: int) -> tuple[int, int, int]:
    """Jitter the substrate level by one; the job cost stays within its tier."""
    return _jitter(rng, s, 1, 2, 120), e, i


def _inhibition_pair(b: _Builder, n: int, m: int, p: int, perturbed: bool = False):
    tag = f"inh-{n}-{m}-{p}"
    a = b.file(f"{tag}-full.bp", inhibition_full(n, m, p).text())
    extra = 1 if perturbed else 0
    red = b.file(
        f"{tag}-reduced{'-plus' if perturbed else ''}.bp",
        inhibition_reduced(n + extra, m, p).text(),
    )
    cfg = b.file("inhibition.cfg", INHIBITION_CONFIG)
    return tag, a, red, cfg


def _largest_job(b: _Builder, name: str, first: str, second: str, cfg: str, mode: str,
                 code: int, states: list[int], contains: list | None = None) -> None:
    """A ``check`` without a relation.  With ``contains``, the largest
    relation is written out and must include that known relation."""
    argv = ["check", first, second, "--config", cfg, "--mode", mode, "--json", "--deterministic"]
    expect = {"kind": "largest", "code": code, "verdict": ("equivalent", "not-equivalent")[code], "states": states}
    outputs = []
    if contains is not None:
        outputs = [f"{{w}}/{name.replace('/', '-')}-largest.json"]
        argv[-2:-2] = ["--emit-relation", outputs[0]]
        expect["contains"] = contains
    b.add(name, argv, expect, outputs=outputs)


def decide_jobs(rng: random.Random) -> list[Job]:
    b = _Builder()
    tiers = [(10, 2, 0), (13, 2, 1), (16, 3, 1), (19, 3, 1), (22, 3, 1),
             (25, 4, 1), (28, 4, 2), (31, 4, 2), (34, 5, 2), (37, 5, 2)]
    anchors = [(40, 6, 3), (44, 6, 2), (46, 5, 3)]
    for idx, base in enumerate(tiers + anchors):
        anchor = base in anchors
        n, m, p = base if anchor else _inh_params(rng, *base)
        tag, a, red, cfg = _inhibition_pair(b, n, m, p)
        states = [len(inhibition_states(n, m, p)), n + 1]
        for mode in ("fast-slow", "slow"):
            _largest_job(b, f"decide/{tag}/{mode}", a, red, cfg, mode, 0, states, ["inhibition", n, m, p])
        if idx % 2 == 1 or anchor:
            tag, a, red, cfg = _inhibition_pair(b, n, m, p, perturbed=True)
            mode = "slow" if anchor else rng.choice(("fast-slow", "slow"))
            _largest_job(b, f"decide/{tag}-plus/{mode}", a, red, cfg, mode, 1, [states[0], n + 2])
    cfg = b.file("inhibition-self.cfg", INHIBITION_SELF_CONFIG)
    for n, m, p in [(6, 3, 1), (8, 3, 1), (9, 3, 2), (10, 3, 2), (12, 4, 2)]:
        a = b.file(f"inh-{n}-{m}-{p}-full.bp", inhibition_full(n, m, p).text())
        size = len(inhibition_states(n, m, p))
        for mode in ("fast-slow", "slow"):
            _largest_job(b, f"decide/self-inh-{n}-{m}-{p}/{mode}", a, a, cfg, mode, 0, [size, size], ["identity", size])
    for k, t in [(2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]:
        a = b.file(f"path-{k}-{t}.bp", pathway(k, t).text())
        cfg = b.file(f"path-{k}.cfg", pathway_config(k))
        size = pathway_state_count(k, t)
        for mode in ("fast-slow", "slow"):
            _largest_job(b, f"decide/self-path-{k}-{t}/{mode}", a, a, cfg, mode, 0, [size, size], ["identity", size])
    for base in (10, 18):
        n = _jitter(rng, base, 2, 1, 100)
        level = rng.randint(0, 2)
        congruence = [
            (f"burst-{n}", burst_models(n), BURST_CONFIG, 1, ["a"], False, "not-equivalent"),
            (f"producer-{n}-{level}", producer_models(n, level), PRODUCER_CONFIG, 0, [], True, "equivalent"),
        ]
        for tag, models, text, code, shared, side, composed in congruence:
            files = [b.file(f"{tag}-{which}.bp", m.text()) for which, m in zip(("p1", "p2", "ctx"), models)]
            cfg = b.file(f"{tag.split('-')[0]}.cfg", text)
            b.add(
                f"decide/{tag}",
                ["congruence", *files, "--config", cfg, "--json", "--deterministic"],
                {"kind": "congruence", "code": code, "sharedFastWithP1": shared, "sharedFastWithP2": [],
                 "sideConditionHolds": side, "componentVerdict": "equivalent", "composedVerdict": composed},
            )
    return b.jobs


def explore_jobs(rng: random.Random) -> list[Job]:
    b = _Builder()
    inh_cfg = b.file("inhibition.cfg", INHIBITION_CONFIG)
    tiers = [(16, 3, 1), (20, 3, 1), (24, 4, 1), (28, 4, 2), (32, 4, 2), (36, 5, 2),
             (40, 5, 2), (44, 5, 3), (48, 6, 2), (54, 6, 3), (60, 6, 3)]
    paths = [(2, 4), (2, 6), (3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5), (5, 3), (5, 4)]
    instances = [("inh", _inh_params(rng, *base), ("json", "dot"), 1) for base in tiers]
    instances += [("path", params, ("json", "dot"), 1) for params in paths]
    # path-4-6 json is the tail cluster: TAIL_COPIES identical jobs between
    # the two largest anchors and the rest, which cost at most 0.75 of it.
    anchors = [
        ("inh", (120, 15, 6), ("dot",), 1),
        ("inh", (90, 10, 4), ("json",), 1),
        ("inh", (80, 8, 4), ("dot",), 1),
        ("inh", (66, 7, 3), ("dot",), 1),
        ("path", (4, 6), ("json",), TAIL_COPIES),
    ]
    for family, params, formats, copies in instances + anchors:
        if family == "inh":
            n, m, p = params
            tag = f"inh-{n}-{m}-{p}"
            model, cfg = inhibition_full(n, m, p), inh_cfg
            expect = {"model": ["inhibition", n, m, p]}
        else:
            k, t = params
            tag = f"path-{k}-{t}"
            model, cfg = pathway(k, t), b.file(f"path-{k}.cfg", pathway_config(k))
            expect = {"model": ["pathway", k, t]}
        src = b.file(f"{tag}.bp", model.text())
        for fmt in formats:
            out = f"{{w}}/{tag}.{fmt}"
            argv = ["lts", src, "--format", fmt, "--out", out]
            if fmt == "dot":
                argv += ["--config", cfg]
            for copy in range(1, copies + 1):
                b.add(f"explore/{tag}/{fmt}" + (f"/{copy}" if copies > 1 else ""), argv,
                      {"kind": "lts", "code": 0, "format": fmt, **expect}, outputs=[out])
    return b.jobs


def certify_jobs(rng: random.Random) -> list[Job]:
    b = _Builder()
    tiers = [(10, 2, 1), (14, 2, 1), (18, 3, 1), (22, 3, 1), (26, 4, 1), (30, 4, 2),
             (34, 4, 2), (38, 5, 2), (42, 5, 2), (48, 6, 2)]
    anchors = [(54, 6, 3), (57, 6, 3), (60, 6, 3)]
    for idx, base in enumerate(tiers + anchors):
        n, m, p = base if base in anchors else _inh_params(rng, *base)
        tag, a, red, cfg = _inhibition_pair(b, n, m, p)
        drop = removable_pair(n, m, p, rng)
        rel = inhibition_relation(n, m, p)
        trel = inhibition_relation_transformed(n, m, p)
        full = b.file(f"{tag}-rel.json", json.dumps(rel))
        minus = b.file(f"{tag}-rel-minus.json", json.dumps(rel[:drop] + rel[drop + 1:]))
        tfull = b.file(f"{tag}-trel.json", json.dumps(trel))
        tminus = b.file(f"{tag}-trel-minus.json", json.dumps(trel[:drop] + trel[drop + 1:]))
        cases = [
            ("relation", "fast-slow", full, 0, "equivalent"),
            ("relation-minus", ("fast-slow", "slow")[idx % 2], minus, 4, "relation-not-a-bisimulation"),
            ("shortcut", "shortcut", tfull, 0, "equivalent"),
            ("shortcut-minus", "shortcut", tminus, 4, "relation-not-a-bisimulation"),
        ]
        for label, mode, rel_file, code, verdict in cases:
            b.add(
                f"certify/{tag}/{label}",
                ["check", a, red, "--config", cfg, "--mode", mode, "--relation", rel_file, "--json", "--deterministic"],
                {"kind": "verify", "code": code, "verdict": verdict, "shortcut": mode == "shortcut"},
            )
    # classify-path-12 is the tail cluster: TAIL_COPIES identical jobs that
    # cost about 1.5 times any verification job and half of classify-path-14.
    for k, copies in ((6, 1), (8, 1), (10, 1), (12, TAIL_COPIES), (14, 1), (18, 1)):
        src = b.file(f"path-{k}-1.bp", pathway(k, 1).text())
        cfg = b.file(f"path-{k}.cfg", pathway_config(k))
        for copy in range(1, copies + 1):
            b.add(
                f"certify/classify-path-{k}" + (f"/{copy}" if copies > 1 else ""),
                ["classify", src, "--config", cfg, "--json", "--deterministic"],
                {"kind": "classify", "code": 0, "model": ["pathway", k, 1], "counts": [k + 1, k, k]},
            )
    src = b.file("explicit-coop.bp", explicit_coop_model().text())
    cfg = b.file("explicit-coop.cfg", EXPLICIT_COOP_CONFIG)
    b.add(
        "certify/classify-explicit-coop",
        ["classify", src, "--config", cfg, "--json", "--deterministic"],
        {"kind": "classify", "code": 0, "model": ["explicit-coop"]},
        known_defect="ROADMAP 4(a): conserved vectors are computed per reaction name, "
        "not per reaction instance, so A+B = 1 is claimed while (1,1,1) is reachable",
    )
    return b.jobs


_GENERATORS = {"decide": decide_jobs, "explore": explore_jobs, "certify": certify_jobs}
WORKLOADS = tuple(_GENERATORS)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one cycle, in an order that interleaves sizes.

    The order is a fixed permutation per workload: a workload has the same
    number of jobs, built in the same order, for every seed, so each slot
    holds a job of about the same size.  The peak memory depends on the
    jobs that ran before the largest one, and would otherwise move by
    about 5 % from seed to seed.
    """
    jobs = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    random.Random(f"{workload}:order:{len(jobs)}").shuffle(jobs)
    return jobs


def digest(jobs: list[Job]) -> str:
    doc = [[j.name, j.argv, sorted(j.files.items()), j.expect, j.known_defect] for j in jobs]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def model_for(spec: list) -> Model:
    """Rebuild the model a job's expectations refer to."""
    family, *params = spec
    if family == "inhibition":
        return inhibition_full(*params)
    if family == "pathway":
        return pathway(*params)
    if family == "explicit-coop":
        return explicit_coop_model()
    raise ValueError(f"unknown model family {family}")


def reachable_states(spec: list) -> list[tuple[int, ...]]:
    """Closed-form (or hand-enumerated) reachable states of a model."""
    family, *params = spec
    if family == "inhibition":
        return inhibition_states(*params)
    if family == "pathway":
        return pathway_states(*params)
    if family == "explicit-coop":
        return list(EXPLICIT_COOP_STATES)
    raise ValueError(f"unknown model family {family}")
