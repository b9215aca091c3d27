"""Command-line frontend.

Commands: ``lts`` (export a transition system), ``check`` (decide
fast-slow or slow bisimilarity, verify a supplied relation, or run the
slow-check shortcut), ``classify`` (conserved/slow/fast variables),
``congruence`` (side condition plus component and composed verdicts) and
``extend`` (apply the species extension operator and print model text).

Exit codes: 0 success or equivalent, 1 not equivalent (also a supplied
bisimulation that leaves the initial states unrelated), 2 input error
or a failed write, 3 state cap exceeded or out of memory, 4 relation
supplied but not a bisimulation, 5 shortcut or classification
preconditions unmet.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from itertools import chain, islice
from pathlib import Path
from typing import Iterable

from . import classification, equivalence, parser, semantics
from .model import ModelError, extend_species
from .semantics import StateSpaceLimitError

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_INPUT = 2
EXIT_STATE_CAP = 3
EXIT_BAD_RELATION = 4
EXIT_PRECONDITION = 5


class _InputError(Exception):
    pass


def _read(args, path: str) -> str:
    """The text of ``path``, with its newlines read as ``open`` reads them
    in text mode; the SHA-256 of the bytes read goes to the report's
    ``inputs``, so the file is read once."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise _InputError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    args._inputs[path] = hashlib.sha256(data).hexdigest()
    return text.replace("\r\n", "\n").replace("\r", "\n")


# pieces of a document joined into one write: a document is held as text
# one batch at a time, never whole
BATCH = 512


def _stream(out, pieces: Iterable[str]) -> None:
    """Write ``pieces`` to ``out`` in order, ``BATCH`` of them at a time."""
    pieces = iter(pieces)
    while batch := list(islice(pieces, BATCH)):
        out.write("".join(batch))


def _write(path: str, pieces: Iterable[str]) -> None:
    """Stream ``pieces`` into the file at ``path``; a failed write leaves
    what was written so far."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            _stream(out, pieces)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None


def _load(args, path: str, parse):
    """A model or configuration file read through ``parse``."""
    text = _read(args, path)
    try:
        return parse(text)
    except parser.ParseError as exc:
        lines = [f"{path}:{d}" for d in exc.diagnostics]
        raise _InputError("\n".join(lines)) from None


def _load_relation(args, path: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    text = _read(args, path)
    try:
        obj = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer of too many digits
        raise _InputError(f"{path}: {exc}") from None
    except RecursionError:
        raise _InputError(f"{path}: JSON nested too deeply") from None
    if not isinstance(obj, list):
        raise _InputError(f"{path}: relation file must hold a JSON array of pairs")
    try:
        return [equivalence.read_pair(item) for item in obj]
    except equivalence.RelationFormatError as exc:
        raise _InputError(f"{path}: {exc}") from None


def _report(args, **fields) -> dict:
    # every command reads its inputs in the order its arguments name them
    report = {"command": args.command, "inputs": args._inputs}
    report.update(fields)
    if not args.deterministic:
        report["timing_ms"] = round((time.monotonic() - args._started) * 1000.0, 3)
    return report


def _emit(args, report: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in human:
            print(line)


def _refuse(problems: list[str]) -> None:
    if problems:
        raise _InputError("\n".join(problems))


# commands ---------------------------------------------------------------


def cmd_lts(args) -> int:
    sys_def = _load(args, args.model, parser.parse_model)
    cfg = _load(args, args.config, parser.parse_config) if args.config else None
    lts = semantics.build_lts(sys_def, max_states=args.max_states)
    if args.format == "dot":
        document = semantics.lts_dot_pieces(lts, cfg)
    else:
        document = chain(semantics.lts_json_pieces(lts), ("\n",))
    counts = f"{lts.n_states} states, {lts.n_transitions} transitions"
    if args.out:
        _write(args.out, document)
        print(counts)
    else:
        _stream(sys.stdout, document)
        print(counts, file=sys.stderr)
    return EXIT_OK


_VERDICT_EXIT = {
    "equivalent": EXIT_OK,
    "not-equivalent": EXIT_NOT_EQUIVALENT,
    "relation-not-a-bisimulation": EXIT_BAD_RELATION,
    "relation-valid-but-initial-states-unrelated": EXIT_NOT_EQUIVALENT,
}


def _refuse_unresolvable(pairs, sys_a, sys_b) -> None:
    """Refuse, before any build, a relation that no transition system can
    resolve: an empty one, or one with a vector of the wrong length.  The
    messages are those of the check and of ``index_pairs``."""
    if not pairs:
        raise equivalence.EquivalenceError("empty-relation")
    width_a, width_b = len(sys_a.species_order), len(sys_b.species_order)
    for va, vb in pairs:
        if len(va) != width_a:
            raise equivalence.RelationResolutionError(va, "first-model")
        if len(vb) != width_b:
            raise equivalence.RelationResolutionError(vb, "second-model")


def cmd_check(args) -> int:
    if args.emit_relation and (args.relation or args.mode == "shortcut"):
        raise _InputError("--emit-relation cannot be combined with --relation or --mode shortcut")
    sys_a = _load(args, args.model_a, parser.parse_model)
    sys_b = _load(args, args.model_b, parser.parse_model)
    cfg = _load(args, args.config, parser.parse_config)
    if args.mode == "shortcut" and not args.relation:
        raise _InputError("mode shortcut needs --relation (transformed coordinates)")
    _refuse(equivalence.config_problems(cfg, sys_a, sys_b))
    pairs = _load_relation(args, args.relation) if args.relation else None

    if args.mode == "shortcut":
        result = classification.shortcut_check(
            sys_a, sys_b, cfg, pairs, max_states=args.max_states
        )
        outcome = result.outcome
        # unmet preconditions raise, so a report is only written when the
        # shortcut applies
        report = _report(
            args,
            mode=args.mode,
            applicable=True,
            slowVerdict=result.slow_outcome.verdict,
            fastSlowVerdict=result.fastslow_outcome.verdict,
            verdict=outcome.verdict,
            witness=outcome.witness.describe() if outcome.witness else None,
        )
        _emit(args, report, [f"verdict: {outcome.describe()}"])
        return _VERDICT_EXIT[outcome.verdict]

    if pairs is not None:
        _refuse_unresolvable(pairs, sys_a, sys_b)
    lts_a = semantics.build_lts(sys_a, max_states=args.max_states)
    lts_b = semantics.build_lts(sys_b, max_states=args.max_states)
    check = (
        equivalence.check_fast_slow_relation
        if args.mode == "fast-slow"
        else equivalence.check_slow_relation
    )
    largest = (
        equivalence.largest_fast_slow
        if args.mode == "fast-slow"
        else equivalence.largest_slow
    )

    if pairs is not None:
        rel = equivalence.index_pairs(pairs, lts_a, lts_b)
        outcome = equivalence.relation_verdict(check(rel, lts_a, lts_b, cfg), rel, lts_a, lts_b)
    else:
        rel, outcome = largest(lts_a, lts_b, cfg)
        if args.emit_relation:
            pieces = equivalence.relation_json_pieces(rel, lts_a, lts_b)
            _write(args.emit_relation, chain(pieces, ("\n",)))

    report = _report(
        args,
        mode=args.mode,
        states={"left": lts_a.n_states, "right": lts_b.n_states},
        transitions={"left": lts_a.n_transitions, "right": lts_b.n_transitions},
        relationSize=len(rel),
        verdict=outcome.verdict,
        witness=outcome.witness.describe() if outcome.witness else None,
    )
    human = [f"verdict: {outcome.verdict}"]
    if outcome.witness is not None:
        human.append(outcome.witness.describe())
    _emit(args, report, human)
    return _VERDICT_EXIT[outcome.verdict]


def cmd_classify(args) -> int:
    sys_def = _load(args, args.model, parser.parse_model)
    cfg = _load(args, args.config, parser.parse_config)
    # delta may name species of a model this one is compared with
    _refuse(equivalence.partition_problems(cfg, sys_def))
    report_doc = classification.classification_report(sys_def, cfg)
    report = _report(args, classification=report_doc)
    human = []
    for kind in ("conserved", "slow", "fast"):
        for entry in report_doc[kind]:
            constant = f" = {entry['constant']}" if "constant" in entry else ""
            human.append(f"{kind}: {entry['name']}{constant}")
        if not report_doc[kind]:
            human.append(f"{kind}: (none)")
    human.append(f"block shape verified: {report_doc['blockShapeVerified']}")
    for warning in report_doc["warnings"]:
        human.append(f"warning: {warning}")
    _emit(args, report, human)
    if not report_doc["slow"]:
        print("no slow variables: the slow-check shortcut cannot be used", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


def cmd_congruence(args) -> int:
    p1 = _load(args, args.model_p1, parser.parse_model)
    p2 = _load(args, args.model_p2, parser.parse_model)
    q = _load(args, args.model_q, parser.parse_model)
    cfg = _load(args, args.config, parser.parse_config)
    probe = equivalence.congruence_probe(p1, p2, q, cfg, max_states=args.max_states)
    report = _report(
        args,
        sharedFastWithP1=sorted(probe.shared_with_p1),
        sharedFastWithP2=sorted(probe.shared_with_p2),
        sideConditionHolds=probe.side_condition_ok,
        componentVerdict=probe.component.verdict,
        composedVerdict=probe.composed.verdict,
        witness=probe.composed.witness.describe() if probe.composed.witness else None,
    )
    human = [
        "shared fast actions with context: "
        + (", ".join(sorted(probe.shared_with_p1 | probe.shared_with_p2)) or "(none)"),
        f"side condition holds: {probe.side_condition_ok}",
        f"component verdict: {probe.component.verdict}",
        f"composed verdict: {probe.composed.verdict}",
    ]
    if probe.composed.witness is not None:
        human.append(probe.composed.witness.describe())
    _emit(args, report, human)
    ok = probe.side_condition_ok and probe.composed.equivalent
    return EXIT_OK if ok else EXIT_NOT_EQUIVALENT


def cmd_extend(args) -> int:
    sys_def = _load(args, args.model, parser.parse_model)
    try:
        base = sys_def.species_def(args.base)
        extension = sys_def.species_def(args.extension)
    except KeyError as exc:
        raise _InputError(f"unknown species {exc.args[0]}") from None
    extended = extend_species(base, extension)
    print(f"max {extended.name} = {extended.max_count};")
    print(parser.render_species(extended))
    return EXIT_OK


# argument plumbing -------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_max_states(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--max-states",
        type=_positive_int,
        default=semantics.DEFAULT_STATE_CAP,
        help="fail with exit code 3 once a transition system exceeds this many states",
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable report")
    sub.add_argument(
        "--deterministic",
        action="store_true",
        help="suppress timing fields so identical inputs give identical output",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fastslow",
        description="Bio-PEPA with levels: transition systems, fast-slow and "
        "slow bisimilarity, stoichiometric variable classification.",
    )
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("lts", help="build and export a transition system")
    p.add_argument("model")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--out", help="output path (default: stdout)")
    _add_max_states(p)
    p.add_argument("--config", help="annotate edges with filtered labels")
    p.set_defaults(func=cmd_lts)

    p = subs.add_parser("check", help="decide or verify bisimilarity of two models")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--config", required=True)
    p.add_argument("--relation", help="verify this relation file instead of computing")
    p.add_argument(
        "--mode", choices=("fast-slow", "slow", "shortcut"), default="fast-slow"
    )
    p.add_argument("--emit-relation", help="write the computed largest relation here")
    _add_max_states(p)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("classify", help="conserved, slow and fast variables")
    p.add_argument("model")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser(
        "congruence", help="side condition and verdicts for composition with a context"
    )
    p.add_argument("model_p1")
    p.add_argument("model_p2")
    p.add_argument("model_q")
    p.add_argument("--config", required=True)
    _add_max_states(p)
    _add_common(p)
    p.set_defaults(func=cmd_congruence)

    p = subs.add_parser("extend", help="extend one species by another, print model text")
    p.add_argument("model")
    p.add_argument("base")
    p.add_argument("extension")
    p.set_defaults(func=cmd_extend)

    return top


_arg_parser = functools.cache(build_arg_parser)  # built once per process


def main(argv: list[str] | None = None) -> int:
    # standard output is UTF-8 whatever the locale, as written files are;
    # a StringIO has no encoding to set
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    args = _arg_parser().parse_args(argv)
    args._started = time.monotonic()
    args._inputs = {}  # path -> SHA-256 of the bytes read
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed write raises here, not at shutdown
        return code
    except StateSpaceLimitError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_STATE_CAP
    except MemoryError:
        print("out-of-memory: a lower --max-states caps the transition systems built", file=sys.stderr)
        return EXIT_STATE_CAP
    # both shortcut errors are ClassificationErrors: this arm goes first
    except (
        classification.ShortcutPreconditionError,
        classification.ShortcutLiftError,
    ) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PRECONDITION
    except (
        _InputError,
        ModelError,
        equivalence.EquivalenceError,
        semantics.UnpartitionedActionError,
        classification.ClassificationError,
    ) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # one without a file name is a write to standard output
        print(f"{exc.filename or 'standard output'}: {exc.strerror or exc}", file=sys.stderr)
        # the unwritten rest goes nowhere, so shutdown prints nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
