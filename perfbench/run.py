#!/usr/bin/env python3
"""End-to-end benchmark of the corefkit command line pipeline.

Usage::

    python3 perfbench/run.py --workload {wide,long} --seed N --seconds S \\
        --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` and the corpora come from ``tests/corpusgen.py``.

Each run generates its corpus from ``--seed`` into a temporary directory
under ``perfbench/`` that is removed on exit, then drives the README
pipeline as a closed loop with one client, one ``python -m corefkit.cli``
process after another: ``transform``, ``transform --jobs 2``,
``resolve-baseline``, ``resolve-baseline --jobs 2``, ``score`` and
``stats``. The ``--jobs 2`` commands run the ``map_documents`` worker
pool that the default ``--jobs 1`` bypasses, and must write the same
bytes. The first sequence is checked against oracles computed from the
generated corpus (the expected rewrite, and the independent resolver,
score and stats recounts of ``tests/``); every later command must
reproduce its output bytes exactly.

``--trace 0`` times the processes and reports the end-to-end metrics,
scaled by the host's speed at the time (see ``measure_untraced``).
``--trace 1`` runs the same commands in-process through
``corefkit.cli.main``, alternating untraced passes with passes whose
layer calls are recorded as spans (see ``spans.py``), plus a probe that
times the length-sensitive layers on a 1000- and a 2000-sentence
document; it reports the per-layer metrics and the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record, with the environment,
sample counts, tail percentiles and output digests, goes to
``perfbench/results/``. Any failed check makes the exit code 1.
``--scale`` shrinks the corpora for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_SAMPLES = 3  # per pipeline sequence, so they spread over the run
COMMAND_TIMEOUT_S = 150
# Metric name of each command's wall time, in the order a sequence runs.
COMMAND_METRICS = {"transform": "transform_s",
                   "transform-jobs2": "transform_jobs2_s",
                   "resolve-baseline": "resolve_s",
                   "resolve-jobs2": "resolve_jobs2_s",
                   "score": "score_s", "stats": "stats_s"}
# The README pipeline at the default --jobs 1; pipeline_ktok_s times it.
PIPELINE = ("transform", "resolve-baseline", "score", "stats")
# Commands that must write the same bytes as another command.
SAME_OUTPUT_AS = {"transform-jobs2": "transform", "resolve-jobs2": "resolve-baseline"}
POOL = tuple(SAME_OUTPUT_AS)


@dataclass(frozen=True)
class Workload:
    why: str
    documents: int              # story documents per entry of ``lengths``
    lengths: tuple[int, ...]    # sentences per document
    entities: int


# ``wide`` is scaled down from 2000 to 400 documents so that a run holds
# about ten sequences; ``long`` keeps its lengths, since the 1000 -> 2000
# doubling is what it is for. The --jobs 2 commands ride along in both
# rather than in a workload of their own, which leaves the run-time
# budget to longer, steadier runs of two workloads.
WORKLOADS = {
    "wide": Workload(
        "400 short stories (20 sentences, about 38k tokens): per-token costs "
        "of parse, transform, serialize and stats dominate",
        400, (20,), 3),
    "long": Workload(
        "3 stories of 500, 1000 and 2000 sentences (about 17k tokens): the "
        "quadratic scoring, resolving and validation paths dominate",
        1, (500, 1000, 2000), 8),
}
PROBE_LENGTHS = WORKLOADS["long"].lengths[1:]  # growth = time(2000) / time(1000)

END_TO_END_UNITS = {"setup_s": "s", "pipeline_ktok_s": "ktok/s",
                    **{name: "s" for name in COMMAND_METRICS.values()},
                    "peak_rss_mb": "MiB"}


def scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


def generate_corpus(workload: Workload, seed: int, scale: float = 1.0):
    """The workload's corpus for ``seed``; equal seeds give equal corpora."""
    from corpusgen import story_document
    from corefkit.model import Corpus

    rng = random.Random(seed)
    return Corpus(tuple(
        story_document(rng, f"story{length}-{i:04d}", scaled(length, scale),
                       workload.entities)
        for length in workload.lengths
        for i in range(scaled(workload.documents, scale))))


def corpus_text(corpus) -> str:
    from corefkit.conll import serialize_corpus
    return serialize_corpus(corpus)


# --- running commands --------------------------------------------------------

@dataclass
class Invocation:
    command: str
    seconds: float
    exit_code: int
    stderr: str
    output: bytes | None
    rss_mb: float = 0.0


@dataclass
class Sequence:
    invocations: list[Invocation]

    @property
    def pipeline_seconds(self) -> float:
        return sum(i.seconds for i in self.invocations if i.command in PIPELINE)


def command_lines(work: Path) -> list[tuple[str, list[str], Path | None]]:
    """(command, CLI arguments, output file or None for stdout)."""
    source, gold, gold2, pred, pred2, score = (str(work / name) for name in (
        "input.conll", "transformed.conll", "transformed2.conll",
        "resolved.conll", "resolved2.conll", "score.txt"))
    transform = ["transform", "--paradigm", "hen", "--anonymize",
                 "--neutralize-nouns"]
    return [
        ("transform", [*transform, source, "-o", gold], Path(gold)),
        ("transform-jobs2", [*transform, "--jobs", "2", source, "-o", gold2],
         Path(gold2)),
        ("resolve-baseline", ["resolve-baseline", gold, "-o", pred], Path(pred)),
        ("resolve-jobs2", ["resolve-baseline", "--jobs", "2", gold, "-o", pred2],
         Path(pred2)),
        ("score", ["score", "--gold", gold, "--pred", pred, "-o", score],
         Path(score)),
        ("stats", ["stats", gold], None),
    ]


def child_env(work: Path) -> dict[str, str]:
    """Import from ``src/``, with a bytecode cache of the run's own.

    The first process fills the cache under ``work`` and every later one
    loads from it, as an installed package would, whatever the caller's
    ``PYTHONDONTWRITEBYTECODE`` says.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    return env


def spawn(argv: list[str], work: Path, env: dict[str, str]
          ) -> tuple[float, int, float, bytes, str]:
    """Run one process; (seconds, exit code, peak RSS MiB, stdout, stderr)."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (seconds, proc.returncode, usage.ru_maxrss / 1024,
            out_path.read_bytes(), err_path.read_text("utf-8", "replace"))


def run_subprocess(command: str, args: list[str], output: Path | None,
                   work: Path, env: dict[str, str]) -> Invocation:
    seconds, code, rss, stdout, stderr = spawn(
        [sys.executable, "-m", "corefkit.cli", *args], work, env)
    if output is None:
        return Invocation(command, seconds, code, stderr, stdout, rss)
    if stdout:
        stderr += "unexpected stdout with -o\n"
    data = output.read_bytes() if output.exists() else None
    return Invocation(command, seconds, code, stderr, data, rss)


def run_in_process(command: str, args: list[str], output: Path | None,
                   tracer=None) -> Invocation:
    from corefkit import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            code = cli.main(args)
        else:
            with tracer.span(f"cli.{command}"):
                code = cli.main(args)
    seconds = time.perf_counter() - start
    stderr = err.getvalue()
    if output is None:
        return Invocation(command, seconds, code, stderr,
                          out.getvalue().encode("utf-8"))
    if out.getvalue():
        stderr += "unexpected stdout with -o\n"
    data = output.read_bytes() if output.exists() else None
    return Invocation(command, seconds, code, stderr, data)


def run_sequence(work: Path, runner) -> Sequence:
    """One closed-loop pass over the commands; ``runner`` runs one."""
    invocations = []
    for command, args, output in command_lines(work):
        if output is not None and output.exists():
            output.unlink()
        invocations.append(runner(command, args, output))
    return Sequence(invocations)


# --- correctness -------------------------------------------------------------

def digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def keyvalues(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def expected_score(gold, pred) -> dict[str, str]:
    """``score``'s key=value block from the oracles of tests/test_metrics.py.

    LEA is pooled over all documents, which equals LEA on one document
    holding every entity, with sentence indices shifted apart.
    """
    from test_metrics import lea_oracle, naive_pronoun_oracle
    from corefkit.model import Cluster, Document, MentionSpan

    pred_by_id = {d.id: d for d in pred.documents}
    pooled: tuple[list, list] = ([], [])
    resolved = total = non_mention = 0
    per_form: dict[str, tuple[int, int]] = {}
    offset = 0
    for gold_doc in gold.documents:
        pred_doc = pred_by_id[gold_doc.id]
        for side, doc in zip(pooled, (gold_doc, pred_doc)):
            side.extend(Cluster(len(side), tuple(
                MentionSpan(m.sentence_index + offset, m.start, m.end)
                for m in cluster.mentions)) for cluster in doc.clusters)
        offset += len(gold_doc.sentences)
        _, hits, seen, forms, outside, _ = naive_pronoun_oracle(gold_doc, pred_doc)
        resolved += hits
        total += seen
        non_mention += outside
        for form, (h, s) in forms.items():
            old = per_form.get(form, (0, 0))
            per_form[form] = (old[0] + h, old[1] + s)
    precision, recall, f1 = lea_oracle(Document("gold", (), tuple(pooled[0])),
                                       Document("pred", (), tuple(pooled[1])))
    expected = {
        "documents": str(len(gold.documents)),
        "lea_precision": f"{precision:.6f}",
        "lea_recall": f"{recall:.6f}",
        "lea_f1": f"{f1:.6f}",
        "pronoun_score": f"{100.0 * resolved / total:.2f}" if total else "NA",
        "pronoun_resolved": str(resolved),
        "pronoun_total": str(total),
        "pronoun_non_mention": str(non_mention),
    }
    for form in sorted(per_form):
        expected[f"pronoun_form_{form}"] = "%d/%d" % per_form[form]
    return expected


def score_mismatches(text: str, expected: dict[str, str]) -> list[str]:
    """Keys whose value disagrees with the oracle beyond print rounding."""
    got = keyvalues(text)
    bad = sorted(set(got) ^ set(expected))
    for key in set(got) & set(expected):
        if got[key] == expected[key]:
            continue
        tolerance = 2e-6 if key.startswith("lea_") else 0.006
        try:
            close = abs(float(got[key]) - float(expected[key])) <= tolerance
        except ValueError:
            close = False
        if not close:
            bad.append(key)
    return bad


_TOKEN_COLUMNS = ("pos", "feats", "dep_head", "dep_rel", "ner")


def _grid(corpus, columns=_TOKEN_COLUMNS):
    return [(d.id, [[tuple(getattr(t, c) for c in columns) for t in s]
                    for s in d.sentences]) for d in corpus.documents]


def _parse(data: bytes):
    from corefkit.conll import parse_corpus
    return parse_corpus(data.decode("utf-8"))


def expected_rewrite(document) -> list[list[tuple[str, str]]]:
    """(form, lemma) of each token after the benchmark's ``transform``.

    The README's steps in order: a third-person singular pronoun takes
    the ``hen`` form of its role, a PER token becomes ``ANON_<n>`` with
    ``n`` the first-occurrence index of its form in the document, and a
    NOUN with an entry in the noun table takes its neutral replacement.
    Every other token keeps its form and lemma.
    """
    from corefkit.lexicon import builtin_noun_lexicon, get_paradigm, transfer_case
    from corefkit.transform import PronounRole, classify_pronoun

    hen = get_paradigm("hen")
    role_forms = {PronounRole.SUBJECT: hen.subject_form,
                  PronounRole.OBJECT: hen.object_form,
                  PronounRole.POSSESSIVE: hen.possessive_form}
    nouns = builtin_noun_lexicon()
    names: dict[str, int] = {}
    rows = []
    for sentence in document.sentences:
        row = []
        for token in sentence:
            form, lemma = token.form, token.lemma
            role = classify_pronoun(token)
            if role is not None:
                lemma = role_forms[role]
                form = transfer_case(form, lemma)
            if token.ner == "PER":
                form = lemma = f"ANON_{names.setdefault(form, len(names))}"
            entry = nouns.get(form.lower()) if token.pos == "NOUN" else None
            if entry is not None:
                form = transfer_case(form, entry.replacement)
                lemma = form.lower()
            row.append((form, lemma))
        rows.append(row)
    return rows


def expected_stats(corpus) -> tuple[list[list[str]], dict[str, str]]:
    """``stats``' table rows and key=value lines, from the naive recount
    of tests/test_stats.py."""
    from test_stats import naive_recount
    from corefkit.stats import DEFAULT_REPORT_FORMS

    counts, tokens, pronouns, third, masculine = naive_recount(
        corpus, DEFAULT_REPORT_FORMS)
    columns = ("total", "personal_subject", "personal_object", "possessive",
               "relative", "demonstrative", "other", "third")
    rows = [[form, *(str(counts[form][c]) for c in columns)]
            for form in DEFAULT_REPORT_FORMS]
    share = lambda part, whole: f"{part / whole if whole else 0.0:.6f}"
    return rows, {
        "token_count": str(tokens),
        "pronoun_count": str(pronouns),
        "pronoun_proportion": share(pronouns, tokens),
        "third_singular_count": str(third),
        "third_singular_share": share(third, pronouns),
        "masculine_count": str(masculine),
        "masculine_share": share(masculine, third),
    }


def stats_table(text: str) -> list[list[str]]:
    """The rows of ``stats``' table, without its header."""
    return [line.split() for line in text.split("\n\n", 1)[0].splitlines()[1:]]


class Checker:
    """Checks every invocation; the first sequence becomes the reference."""

    def __init__(self, source):
        self.source = source
        self.sequences = 0
        self.reference: dict[str, str | None] = {}
        self.counts: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, sequence: Sequence) -> None:
        """Count each invocation once, failed if any of its checks fails."""
        problems: dict[str, list[str]] = {i.command: [] for i in sequence.invocations}
        if not self.sequences:
            self._check_reference(sequence, problems)
        self.sequences += 1
        for invocation in sequence.invocations:
            self.attempted += 1
            found = problems[invocation.command]
            if invocation.exit_code != 0:
                found.append(f"exit code {invocation.exit_code}")
            if invocation.stderr:
                found.append(f"stderr {invocation.stderr[:200]!r}")
            expected = SAME_OUTPUT_AS.get(invocation.command, invocation.command)
            if digest(invocation.output) != self.reference[expected]:
                found.append(f"output bytes differ from the reference {expected}")
            if found:
                self.failures.append(f"{invocation.command}: {'; '.join(found)}")

    def _check_reference(self, sequence: Sequence,
                         problems: dict[str, list[str]]) -> None:
        """Check the first sequence against the oracles; record its digests."""
        from test_resolver import oracle_resolve

        outputs = {i.command: i.output or b"" for i in sequence.invocations}
        self.reference = {i.command: digest(i.output) for i in sequence.invocations}
        try:
            gold, gold_diagnostics = _parse(outputs["transform"])
            pred, pred_diagnostics = _parse(outputs["resolve-baseline"])
        except Exception as exc:  # whatever the parser raises fails the pass
            problems["transform"].append(f"outputs do not parse back: {exc!r}")
            return
        if gold_diagnostics or _grid(gold) != _grid(self.source):
            problems["transform"].append("token grid differs from the input")
            return  # the checks below compare token by token
        if [d.clusters for d in gold.documents] != [
                d.clusters for d in self.source.documents]:
            problems["transform"].append("clusters differ from the input")
        if [[[(t.form, t.lemma) for t in s] for s in d.sentences]
                for d in gold.documents] != [
                expected_rewrite(d) for d in self.source.documents]:
            problems["transform"].append("forms differ from the expected rewrite")
        full = _TOKEN_COLUMNS + ("form", "lemma")
        if pred_diagnostics or _grid(pred, full) != _grid(gold, full):
            problems["resolve-baseline"].append("token grid differs from its input")
        expected_clusters = [[tuple(spans) for spans in oracle_resolve(d)]
                             for d in gold.documents]
        if not any(expected_clusters):
            problems["resolve-baseline"].append("the resolver oracle finds no cluster")
        if [[c.mentions for c in d.clusters] for d in pred.documents] != expected_clusters:
            problems["resolve-baseline"].append("clusters differ from the resolver oracle")
        expected = expected_score(gold, pred)
        bad = score_mismatches(outputs["score"].decode("utf-8"), expected)
        if bad:
            problems["score"].append(f"disagrees with the oracles on {bad}")
        rows, totals = expected_stats(gold)
        text = outputs["stats"].decode("utf-8")
        if stats_table(text) != rows or keyvalues(text) != totals:
            problems["stats"].append("disagrees with the naive recount")
        self.counts = self._counts(gold, pred, int(expected["pronoun_total"]))

    def _counts(self, gold, pred, pronouns_counted: int) -> dict[str, float]:
        """Work counts, from diffing the input and output token grids."""
        from corefkit.transform import ANON_FORM_RE, classify_pronoun

        visited = rewritten = pronouns = names = nouns = 0
        for before_doc, after_doc in zip(self.source.documents, gold.documents):
            for before, after in zip(before_doc.tokens(), after_doc.tokens()):
                visited += 1
                if (before.form, before.lemma) == (after.form, after.lemma):
                    continue
                rewritten += 1
                if classify_pronoun(before) is not None:
                    pronouns += 1
                elif before.ner == "PER" and ANON_FORM_RE.fullmatch(after.form):
                    names += 1
                elif before.pos == "NOUN":
                    nouns += 1
        clusters = [c for d in pred.documents for c in d.clusters]
        return {
            "transform.tokens_rewritten": rewritten,
            "transform.pronouns_swapped": pronouns,
            "transform.names_anonymized": names,
            "transform.nouns_neutralized": nouns,
            "transform.rewrite_ratio": rewritten / visited if visited else 0.0,
            "resolver.links": sum(len(c.mentions) - 1 for c in clusters),
            "resolver.clusters": len(clusters),
            "metrics.pronouns_counted": pronouns_counted,
        }


# --- measurement -------------------------------------------------------------

def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


@dataclass
class Measured:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    # Printed and recorded, but not result metrics: zero on every run
    # that passes its checks, or too small to tell from host noise.
    reported: dict[str, tuple[float, str]] = field(default_factory=dict)
    spans: list[list[dict]] = field(default_factory=list)  # per traced pass


SETUP_ARGV = [sys.executable, "-c", "import corefkit.cli"]


# About the time of ``calibration_job`` in the fast state of the 2-vCPU
# virtual machine the benchmark was built on; end-to-end times are
# scaled to that speed.
CALIBRATION_REFERENCE_S = 0.045


def calibration_job(rounds: int = 60_000) -> dict:
    """Fixed pure-Python work of the CLI's kinds: split, hash, count."""
    counts: dict = {}
    for i in range(rounds):
        fields = f"{i}\tw{i % 97}\tNOUN\tNumber=Sing|Person=3\t_".split("\t")
        key = (fields[1].upper(), fields[2])
        counts[key] = counts.get(key, 0) + len(fields[3])
    return counts


def calibrate() -> float:
    start = time.perf_counter()
    calibration_job()
    return time.perf_counter() - start


class Calibrated:
    """Scales each timed operation by the calibration jobs around it."""

    def __init__(self):
        self.last = calibrate()
        self.slowdowns: list[float] = []

    def scale(self, seconds: float) -> float:
        now = calibrate()
        slowdown = (self.last + now) / 2 / CALIBRATION_REFERENCE_S
        self.last = now
        self.slowdowns.append(slowdown)
        return seconds / slowdown


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def keep_going(started: float, seconds: float, last: float) -> bool:
    """Whether one more iteration of length ``last`` fits the run."""
    return time.perf_counter() - started + last <= seconds


def measure_untraced(work, env, seconds, checker, tokens):
    """Time the commands in processes; scale out the host's speed.

    On a shared virtual machine (measured on a 2-vCPU one) the CPUs
    drift between a fast and a much slower state, in phases from seconds
    to minutes: a fixed pure-Python loop swings by 1.8x and more, in CPU
    time as much as in wall time, and a phase can outlast a whole run.
    So each timed process is divided by how far the calibration jobs run
    just before and after it are off ``CALIBRATION_REFERENCE_S``. The job
    runs no corefkit code, so a change to the program moves only the
    times of its commands. Each time metric is the lower quartile of its
    scaled samples, which leaves out the samples a phase change
    mid-process disturbed most.
    """
    measured = Measured()
    calibrated = Calibrated()
    scaled: dict[str, list[float]] = {"setup_s": []}

    def runner(command, args, output):
        invocation = run_subprocess(command, args, output, work, env)
        scaled.setdefault(COMMAND_METRICS[command], []).append(
            calibrated.scale(invocation.seconds))
        return invocation

    sequences = []
    setup = []
    started = time.perf_counter()
    while True:
        iteration = time.perf_counter()
        sequence = run_sequence(work, runner)
        checker.check(sequence)
        sequences.append(sequence)
        for _ in range(SETUP_SAMPLES):
            setup.append(spawn(SETUP_ARGV, work, env)[0])
            scaled["setup_s"].append(calibrated.scale(setup[-1]))
        if len(sequences) >= 2 and not keep_going(
                started, seconds, time.perf_counter() - iteration):
            break
    samples = {"setup_s": setup,
               "pipeline_ktok_s": [tokens / 1000 / s.pipeline_seconds for s in sequences]}
    for command, name in COMMAND_METRICS.items():
        samples[name] = [i.seconds for s in sequences
                         for i in s.invocations if i.command == command]
    samples["peak_rss_mb"] = [max(i.rss_mb for i in s.invocations) for s in sequences]
    value = {name: lower_quartile(values) for name, values in scaled.items()}
    # The README pipeline with each of its commands at that time.
    value["pipeline_ktok_s"] = tokens / 1000 / sum(
        value[COMMAND_METRICS[command]] for command in PIPELINE)
    value["peak_rss_mb"] = min(samples["peak_rss_mb"])  # unmoved by thread timing
    measured.metrics = {name: (value[name], END_TO_END_UNITS[name])
                        for name in samples}
    measured.reported = {
        "calibration.slowdown": (statistics.median(calibrated.slowdowns), "ratio"),
        **{f"unscaled.{name}": (lower_quartile(samples[name]), "s") for name in scaled}}
    measured.samples = {**samples, "calibration.slowdown": calibrated.slowdowns,
                        **{f"scaled.{name}": v for name, v in scaled.items()}}
    return measured


def growth_probe(seed: int, scale: float) -> dict[str, float]:
    """Time the length-sensitive layers on a 1000- and 2000-sentence story."""
    from corpusgen import story_document
    from corefkit.lexicon import get_paradigm
    from corefkit.metrics import pronoun_score
    from corefkit.model import Corpus, validate_corpus
    from corefkit.resolver import resolve
    from corefkit.transform import DEFAULT_CLASSIFIER_CONFIG, pronoun_specific

    def timed(call):
        start = time.perf_counter()
        result = call()
        return time.perf_counter() - start, result

    rng = random.Random(seed)
    timings: dict[str, list[float]] = {}
    for length in PROBE_LENGTHS:
        raw = story_document(rng, f"probe{length}", scaled(length, scale),
                             WORKLOADS["long"].entities)
        gold = pronoun_specific(raw, get_paradigm("hen"), DEFAULT_CLASSIFIER_CONFIG)
        validate_s, _ = timed(lambda: validate_corpus(Corpus((gold,))))
        resolve_s, pred = timed(lambda: resolve(gold))
        score_s, _ = timed(lambda: pronoun_score(gold, pred))
        for name, seconds in (("model.validate_corpus", validate_s),
                              ("resolver.resolve", resolve_s),
                              ("metrics.pronoun_score", score_s)):
            timings.setdefault(name, []).append(seconds)
    return {f"{name}.growth": big / small
            for name, (small, big) in timings.items()}


PER_LAYER_UNITS = {
    "conll.parse_corpus.ms": "ms", "conll.parse_corpus.ktok_s": "ktok/s",
    "conll.parse_corpus.calls": "count", "conll.diagnostics": "count",
    "conll.docs_dropped": "count", "conll.serialize_corpus.ms": "ms",
    "model.validate_corpus.ms": "ms", "model.validate_corpus.growth": "ratio",
    "model.map_documents.wall_ms": "ms", "model.map_documents.busy_ms": "ms",
    "model.map_documents.speedup": "ratio",
    "transform.swap_pronouns.ms": "ms", "transform.anonymize_names.ms": "ms",
    "transform.replace_nouns.ms": "ms",
    "transform.tokens_rewritten": "count", "transform.pronouns_swapped": "count",
    "transform.names_anonymized": "count", "transform.nouns_neutralized": "count",
    "transform.rewrite_ratio": "ratio",
    "resolver.resolve.ms": "ms", "resolver.resolve.growth": "ratio",
    "resolver.links": "count", "resolver.clusters": "count",
    "metrics.evaluate.ms": "ms", "metrics.lea.ms": "ms",
    "metrics.pronoun_score.ms": "ms", "metrics.pronoun_score.growth": "ratio",
    "metrics.pronouns_counted": "count",
    "stats.pronoun_frequencies.ms": "ms",
    **{f"cli.{c}.self_ms": "ms" for c in PIPELINE},
    "trace.pass_ms": "ms",
}
REPORTED_ONLY = {"conll.diagnostics", "conll.docs_dropped"}


def measure_traced(work, seconds, checker, seed, scale):
    from spans import Tracer, layer_metrics, pool_metrics, traced_layers

    measured = Measured()
    passes: dict[str, list[float]] = {"untraced": [], "traced": []}
    layers: list[dict[str, float]] = []
    growth: list[dict[str, float]] = []
    all_spans = []
    started = time.perf_counter()
    while True:
        iteration = time.perf_counter()
        # Alternate which pass goes first, so neither always runs warmer.
        for traced in (False, True) if len(layers) % 2 == 0 else (True, False):
            gc.collect()  # no pass pays for garbage left by the one before
            if traced:
                tracer = Tracer()
                with traced_layers(tracer):
                    sequence = run_sequence(
                        work, lambda c, a, o: run_in_process(c, a, o, tracer))
                layers.append({**layer_metrics(tracer.spans, PIPELINE),
                               **pool_metrics(tracer.spans, POOL)})
                all_spans.append(tracer.spans)
            else:
                sequence = run_sequence(work, run_in_process)
            checker.check(sequence)
            passes["traced" if traced else "untraced"].append(sequence.pipeline_seconds)
        growth.append(growth_probe(seed, scale))
        if not keep_going(started, seconds, time.perf_counter() - iteration):
            break
    rows = [{**layer, **probe, **checker.counts} for layer, probe in zip(layers, growth)]
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.pass_ms":
            continue
        values = [row.get(name, 0.0) for row in rows]  # no counts if the reference failed
        measured.samples[name] = values
        into = measured.reported if name in REPORTED_ONLY else measured.metrics
        into[name] = (statistics.median(values), unit)
    untraced = statistics.median(passes["untraced"])
    traced = statistics.median(passes["traced"])
    measured.metrics["trace.pass_ms"] = (1000 * traced, "ms")
    measured.reported["trace.overhead_ms"] = (1000 * (traced - untraced), "ms")
    measured.reported["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    measured.samples.update({f"pass.{k}_s": v for k, v in passes.items()})
    measured.spans = [
        [{"id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
          "start": s.start, "end": s.end, **s.attrs} for s in spans]
        for spans in all_spans]
    return measured


# --- reporting ---------------------------------------------------------------

def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, source, text: str) -> dict:
    from corefkit import metrics

    backend = getattr(metrics, "lea_backend", None)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "corpus": {
            "documents": len(source.documents),
            "lengths": sorted({len(d.sentences) for d in source.documents}),
            "sentences": sum(len(d.sentences) for d in source.documents),
            "tokens": sum(d.token_count for d in source.documents),
            "bytes": len(text.encode("utf-8")),
        },
        "lea_backend": backend() if backend is not None else "none",
    }


def report(env: dict, measured: Measured, checker: Checker) -> None:
    print(f"# corefkit pipeline benchmark: {json.dumps(env)}")
    for name, (value, unit) in measured.metrics.items():
        samples = measured.samples.get(name, [])
        line = f"{name:34s} {value:14.6f} {unit:7s}"
        if len(samples) > 1:
            line += f" {len(samples)} samples, raw median {statistics.median(samples):.6f}"
            high = tail(samples)
            if high is not None:
                line += f", p{high[0]} {high[1]:.6f}"
        print(line)
    print("# reported only, not result metrics:")
    for name, (value, unit) in measured.reported.items():
        print(f"{name:34s} {value:14.6f} {unit:7s}")
    attempted = max(checker.attempted, 1)
    print(f"{'failed_share':34s} {len(checker.failures) / attempted:14.6f} ratio   "
          f"{len(checker.failures)} of {checker.attempted} invocations")
    for failure in checker.failures:
        print(f"FAILED {failure}", file=sys.stderr)


def write_results(env: dict, measured: Measured, checker: Checker) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}"
    record = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.metrics.items()},
        "reported": {k: {"value": v, "unit": u}
                     for k, (v, u) in measured.reported.items()},
        "failed_share": len(checker.failures) / max(checker.attempted, 1),
        "samples": measured.samples,
        "tails": {k: tail(v) for k, v in measured.samples.items()},
        "attempted": checker.attempted,
        "failures": checker.failures,
        "output_sha256": checker.reference,
    }
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if measured.spans:
        (RESULTS / f"{stem}.spans.json").write_text(
            json.dumps(measured.spans) + "\n", encoding="utf-8")
    return path


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply document counts and lengths (tests)")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the cleanup below runs


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
    if not (ROOT / "src" / "corefkit" / "cli.py").is_file() or not (
            ROOT / "tests" / "corpusgen.py").is_file():
        print(f"error: {ROOT} is not a corefkit checkout (src/corefkit and "
              "tests/corpusgen.py are needed)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    workload = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        source = generate_corpus(workload, args.seed, args.scale)
        text = corpus_text(source)
        (work / "input.conll").write_text(text, encoding="utf-8")
        env = environment(args, source, text)
        child = child_env(work)
        spawn(SETUP_ARGV, work, child)  # fills the bytecode cache
        checker = Checker(source)
        if args.trace:
            # The reference bytes come from the processes users run.
            checker.check(run_sequence(
                work, lambda c, a, o: run_subprocess(c, a, o, work, child)))
            measured = measure_traced(work, args.seconds, checker,
                                      args.seed, args.scale)
        else:
            tokens = env["corpus"]["tokens"]
            measured = measure_untraced(work, child, args.seconds, checker, tokens)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(env, measured, checker)
    write_results(env, measured, checker)
    failed = len(checker.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
