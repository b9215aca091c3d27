"""Known-answer checks for benchmark jobs, independent of fastslow.

Expected facts come from ``jobs.py``: closed-form reachable state sets,
verdicts and exit codes that hold by construction (reflexivity, the
paper's closed-form relation, perturbations), and hand-derived conserved
quantities.  Transitions of shared-all models are recomputed here from
the model description with a few lines of capability semantics.

``check`` returns a list of problems; an empty list means the job's
output is correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from jobs import (
    ACTIVATOR,
    PRODUCT,
    REACTANT,
    Job,
    Model,
    inhibition_relation,
    model_for,
    pathway_conserved,
    reachable_states,
)


def check(job: Job, result: dict, workdir: str) -> list[str]:
    if result.get("error"):
        return ["raised: " + result["error"].strip().splitlines()[-1]]
    expect = job.expect
    problems = []
    if result["code"] != expect["code"]:
        problems.append(f"exit code {result['code']}, expected {expect['code']}")
    checker = _CHECKERS[expect["kind"]]
    outputs = [o.replace("{w}", workdir) for o in job.outputs]
    try:
        problems += checker(expect, result, outputs)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def _report(result: dict) -> dict:
    return json.loads(result["stdout"])


def _check_largest(expect, result, outputs) -> list[str]:
    report = _report(result)
    problems = _fields(report, {"verdict": expect["verdict"]})
    states = [report["states"]["left"], report["states"]["right"]]
    if states != expect["states"]:
        problems.append(f"states {states}, expected {expect['states']}")
    if "contains" in expect:
        emitted = {
            (tuple(a), tuple(b)) for a, b in json.loads(Path(outputs[0]).read_text())
        }
        if len(emitted) != report["relationSize"]:
            problems.append("emitted relation size differs from the report")
        family, *params = expect["contains"]
        if family == "inhibition":
            wanted = {(tuple(a), tuple(b)) for a, b in inhibition_relation(*params)}
            missing = len(wanted - emitted)
        else:
            missing = params[0] - len({a for a, b in emitted if a == b})
        if missing:
            problems.append(f"{missing} pairs of the known relation missing from the largest relation")
    return problems


def _check_verify(expect, result, outputs) -> list[str]:
    report = _report(result)
    wanted = {"verdict": expect["verdict"]}
    if expect["shortcut"]:
        wanted["applicable"] = True
    return _fields(report, wanted)


def _check_congruence(expect, result, outputs) -> list[str]:
    wanted = {k: v for k, v in expect.items() if k not in ("kind", "code")}
    return _fields(_report(result), wanted)


def _fields(report: dict, wanted: dict) -> list[str]:
    return [
        f"{key} = {report.get(key)!r}, expected {value!r}"
        for key, value in wanted.items()
        if report.get(key) != value
    ]


def _check_classify(expect, result, outputs) -> list[str]:
    doc = _report(result)["classification"]
    model = model_for(expect["model"])
    problems = []
    if doc["species"] != list(model.names):
        return [f"species {doc['species']}, expected {list(model.names)}"]
    conserved = [tuple(e["vector"]) for e in doc["conserved"]]
    slow = [tuple(e["vector"]) for e in doc["slow"]]
    fast = [tuple(e["vector"]) for e in doc["fast"]]
    states = reachable_states(expect["model"])
    for entry in doc["conserved"]:
        values = {_dot(entry["vector"], s) for s in states}
        if values != {entry["constant"]}:
            problems.append(
                f"conserved {entry['name']} = {entry['constant']} takes values "
                f"{sorted(values)} on the reachable states"
            )
    if "counts" in expect:
        counts = [len(conserved), len(slow), len(fast)]
        if counts != expect["counts"]:
            problems.append(f"conserved/slow/fast counts {counts}, expected {expect['counts']}")
    if expect["model"][0] == "pathway":
        k = expect["model"][1]
        hand = pathway_conserved(k)
        if _rank(hand + conserved) != len(hand) or _rank(conserved) != len(conserved):
            problems.append("conserved vectors do not span the hand-derived conserved space")
        fast_columns = [c for a, c in _stoichiometry(model).items() if not a.startswith("cat")]
        for v in slow:
            if any(_dot(v, c) for c in fast_columns):
                problems.append(f"slow vector {v} changes under a fast reaction")
        if _rank(conserved + slow) != len(conserved) + len(slow):
            problems.append("slow vectors are not independent of the conserved ones")
        if _rank(conserved + slow + fast) != len(model.names):
            problems.append("conserved, slow and fast vectors do not form a basis")
    return problems


def _check_lts(expect, result, outputs) -> list[str]:
    model = model_for(expect["model"])
    states = reachable_states(expect["model"])
    wanted = set(_transitions(model, states))
    problems = []
    counts = f"{len(states)} states, {len(wanted)} transitions"
    if result["stdout"].strip() != counts:
        problems.append(f"summary {result['stdout'].strip()!r}, expected {counts!r}")
    text = Path(outputs[0]).read_text()
    if expect["format"] == "json":
        doc = json.loads(text)
        if doc["species"] != list(model.names):
            problems.append(f"species {doc['species']}, expected {list(model.names)}")
        got_states = [tuple(s) for s in doc["states"]]
        initial = got_states[doc["initial"]]
        edges = [(t["src"], t["action"], t["dst"]) for t in doc["transitions"]]
    else:
        nodes = dict(_DOT_NODE.findall(text))
        got_states = [tuple(int(x) for x in nodes[str(i)].split(",")) for i in range(len(nodes))]
        initial = tuple(int(x) for x in _DOT_INITIAL.search(text).group(1).split(","))
        edges = [(int(s), a, int(d)) for s, d, a in _DOT_EDGE.findall(text)]
    if initial != model.initial:
        problems.append(f"initial state {initial}, expected {model.initial}")
    if len(got_states) != len(states) or set(got_states) != set(states):
        problems.append(f"{len(got_states)} states differ from the {len(states)} closed-form states")
        return problems
    got = {(got_states[s], a, got_states[d]) for s, a, d in edges}
    if len(edges) != len(wanted) or got != wanted:
        problems.append(f"{len(edges)} transitions differ from the {len(wanted)} expected")
    return problems


_DOT_NODE = re.compile(r'^  (\d+) \[label="\(([\d,]*)\)"', re.M)
_DOT_INITIAL = re.compile(r'^  \d+ \[label="\(([\d,]*)\)" peripheries=2\]', re.M)
_DOT_EDGE = re.compile(r'^  (\d+) -> (\d+) \[label="([^;"]+)', re.M)


def _stoichiometry(model: Model) -> dict[str, tuple[int, ...]]:
    """Per action, the level change of every species when it fires."""
    columns: dict[str, list[int]] = {}
    for i, s in enumerate(model.species):
        for action, k, role in s.prefixes:
            col = columns.setdefault(action, [0] * len(model.species))
            col[i] = -k if role == REACTANT else k if role == PRODUCT else 0
    return {a: tuple(c) for a, c in columns.items()}


def _transitions(model: Model, states):
    """Capability semantics of a shared-all model: every action fires as one
    instance with all its participants, guarded by their levels."""
    participants: dict[str, list] = {}
    for i, s in enumerate(model.species):
        for action, k, role in s.prefixes:
            participants.setdefault(action, []).append((i, k, role, s.max_level))
    for state in states:
        for action, parts in sorted(participants.items()):
            target = list(state)
            for i, k, role, top in parts:
                level = state[i]
                if role in (REACTANT, ACTIVATOR) and level < k:
                    break
                if role == PRODUCT and level > top - k:
                    break
                if role == REACTANT:
                    target[i] -= k
                elif role == PRODUCT:
                    target[i] += k
            else:
                yield state, action, tuple(target)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


_CHECKERS = {
    "largest": _check_largest,
    "verify": _check_verify,
    "congruence": _check_congruence,
    "classify": _check_classify,
    "lts": _check_lts,
}
