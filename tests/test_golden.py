"""Byte-for-byte pins of ``fastslow check`` and ``fastslow lts`` on the
inhibition fixtures, and of ``fastslow congruence`` on the burst and
producer fixtures.

Each run's exit code, stdout and stderr are compared with the files under
``tests/golden/``, and so is the relation written by ``--emit-relation``.
The runs work in a scratch directory holding copies of the fixtures and
name them by relative path, because the ``--json`` report keys its input
digests by the paths given on the command line.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from fastslow.cli import main
from systems import inhibition_relation_transformed

GOLDEN = Path(__file__).parent / "golden"
MODELS = ["inhibition_full.bp", "inhibition_reduced.bp", "--config", "inhibition.cfg"]
REPORT = ["--json", "--deterministic"]
TRANSFORMED = [[list(a), list(b)] for a, b in inhibition_relation_transformed(5, 3, 0)]

# name: (relation file contents or None, extra arguments, exit code)
CASES = {
    "fast-slow": (None, ["--mode", "fast-slow"], 0),
    "slow": (None, ["--mode", "slow"], 0),
    "fast-slow-emit": (None, ["--mode", "fast-slow", "--emit-relation", "largest.json"], 0),
    "slow-emit": (None, ["--mode", "slow", "--emit-relation", "largest-slow.json"], 0),
    "shortcut": (TRANSFORMED, ["--mode", "shortcut", "--relation", "rel.json"], 0),
    # without the pair of the zero states the slow check still passes and
    # the cross-validating fast-slow check fails
    "shortcut-missing-pair": (
        TRANSFORMED[1:],
        ["--mode", "shortcut", "--relation", "rel.json"],
        4,
    ),
}


def run_case(name: str, workdir: Path, fixtures: Path, capsys) -> tuple[int, str, str]:
    """Run one case in ``workdir`` and return its exit code, stdout and stderr."""
    relation, extra, _ = CASES[name]
    for fixture in ("inhibition_full.bp", "inhibition_reduced.bp", "inhibition.cfg"):
        shutil.copy(fixtures / fixture, workdir / fixture)
    if relation is not None:
        (workdir / "rel.json").write_text(json.dumps(relation))
    code = main(["check", *MODELS, *extra, *REPORT])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", list(CASES))
def test_check_output_is_pinned(name, fixtures, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_case(name, tmp_path, fixtures, capsys)
    assert code == CASES[name][2]
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    assert err == ""
    extra = CASES[name][1]
    if "--emit-relation" in extra:
        emitted = extra[extra.index("--emit-relation") + 1]
        assert (tmp_path / emitted).read_bytes() == (GOLDEN / emitted).read_bytes()


# golden file: (congruence arguments, exit code); the burst compositions
# are not equivalent, so their witness is pinned
CONGRUENCE_CASES = {
    "congruence-burst.stdout": (
        ["burst_a.bp", "burst_b.bp", "drain_ctx.bp", "--config", "burst.cfg"],
        1,
    ),
    "congruence-producer.stdout": (
        ["producer_plain.bp", "producer_activated.bp", "consumer_ctx.bp", "--config", "producer.cfg"],
        0,
    ),
}


@pytest.mark.parametrize("name", list(CONGRUENCE_CASES))
def test_congruence_output_is_pinned(name, fixtures, monkeypatch, capsys):
    monkeypatch.chdir(fixtures)
    args, code = CONGRUENCE_CASES[name]
    assert main(["congruence", *args, *REPORT]) == code
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / name).read_text()
    assert captured.err == ""


# golden file: (lts arguments, stderr); the reduced model has primes in
# its species names
LTS_CASES = {
    "lts-full.json": (["inhibition_full.bp", "--format", "json"], "18 states, 36 transitions\n"),
    "lts-reduced.json": (["inhibition_reduced.bp", "--format", "json"], "6 states, 5 transitions\n"),
    "lts-full.dot": (
        ["inhibition_full.bp", "--format", "dot", "--config", "inhibition.cfg"],
        "18 states, 36 transitions\n",
    ),
}


@pytest.mark.parametrize("name", list(LTS_CASES))
def test_lts_export_is_pinned(name, fixtures, monkeypatch, capsysbinary):
    monkeypatch.chdir(fixtures)
    args, err = LTS_CASES[name]
    assert main(["lts", *args]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == (GOLDEN / name).read_bytes()
    assert captured.err == err.encode()


@pytest.mark.parametrize("name", list(LTS_CASES))
def test_lts_export_to_file_is_pinned(name, fixtures, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(fixtures)
    out = tmp_path / name
    assert main(["lts", *LTS_CASES[name][0], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    assert capsys.readouterr().out == LTS_CASES[name][1]
