"""Tests of the pipeline benchmark itself, at a tiny corpus size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, script: Path = HERE / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1",
         "--scale", "0.02", *args],
        capture_output=True, text=True, cwd=script.parent.parent, timeout=170)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, group):
    done, result = bench("--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 8
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert re.search(rf"^{re.escape(name)} +\S+ +{re.escape(unit)}( |$)",
                         done.stdout, re.MULTILINE), name


@pytest.fixture(scope="module")
def run():
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import run
        yield run
    finally:
        del sys.path[:3]


@pytest.fixture(scope="module")
def passing(run, tmp_path_factory):
    """A tiny corpus and one in-process sequence of the commands on it."""
    work = tmp_path_factory.mktemp("work")
    source = run.generate_corpus(run.WORKLOADS["wide"], 3, 0.05)
    (work / "input.conll").write_text(run.corpus_text(source), encoding="utf-8")
    return source, run.run_sequence(work, run.run_in_process)


def damage(run, source, command: str, data: bytes) -> bytes:
    """Wrong output of ``command`` that still has the right shape."""
    text = data.decode("utf-8")
    if command == "transform":  # the identity transform
        return run.corpus_text(source).encode("utf-8")
    if command == "resolve-baseline":  # one predicted cluster lost
        from corefkit.conll import parse_corpus, serialize_corpus
        corpus, _ = parse_corpus(text)
        first = next(d for d in corpus.documents if d.clusters)
        documents = tuple(replace(d, clusters=d.clusters[:-1]) if d is first else d
                          for d in corpus.documents)
        return serialize_corpus(replace(corpus, documents=documents)).encode("utf-8")
    key = {"score": "lea_f1=", "stats": "token_count="}[command]
    return re.sub(rf"^{key}.*$", f"{key}1", text, flags=re.MULTILINE).encode("utf-8")


def with_output(sequence, command: str, data: bytes):
    return replace(sequence, invocations=[
        replace(i, output=data) if i.command == command else i
        for i in sequence.invocations])


def test_a_correct_sequence_passes_every_check(run, passing):
    source, sequence = passing
    checker = run.Checker(source)
    checker.check(sequence)
    checker.check(sequence)
    assert checker.failures == []
    assert checker.attempted == 2 * len(sequence.invocations)
    assert checker.counts["resolver.links"] > 0


@pytest.mark.parametrize("command, message", [
    ("transform", "forms differ from the expected rewrite"),
    ("resolve-baseline", "clusters differ from the resolver oracle"),
    ("score", "disagrees with the oracles"),
    ("stats", "disagrees with the naive recount"),
])
@pytest.mark.parametrize("reference", [True, False])
def test_a_wrong_output_is_a_failed_operation(run, passing, command, message,
                                              reference):
    """In the first sequence the oracles catch it, later the digests do."""
    source, sequence = passing
    output = next(i.output for i in sequence.invocations if i.command == command)
    wrong = with_output(sequence, command, damage(run, source, command, output))
    checker = run.Checker(source)
    if not reference:
        checker.check(sequence)
        message = f"output bytes differ from the reference {command}"
    checker.check(wrong)
    failed = [f for f in checker.failures if f.startswith(f"{command}: ")]
    assert failed and message in failed[0], checker.failures


def test_the_same_seed_reproduces_the_same_corpus_bytes(run):
    texts = {(name, seed): run.corpus_text(
                 run.generate_corpus(run.WORKLOADS[name], seed, 0.05))
             for name in WORKLOADS for seed in (5, 6)}
    again = run.corpus_text(run.generate_corpus(run.WORKLOADS["long"], 5, 0.05))
    assert texts["long", 5] == again
    assert texts["wide", 5] != texts["wide", 6]


def test_it_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    done, result = bench("--workload", "wide", "--trace", "0",
                         script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert result is None
