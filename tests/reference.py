"""What a ``corefkit`` command line should give, built from the public
library calls: ``reference(argv, stdin_text)`` is ``(exit code, stdout,
files by path, stderr)`` for the nine subcommands. It reads ``argv`` with
its own option table and raises ``ValueError`` on an option it does not
know, so no test compares against a guess; usage errors (exit 1) are not
modelled. Every subcommand reads ``-`` from stdin once, reports a parse
diagnostic as ``path:line: severity: message``, exits 2 with one
``corefkit: error:`` line and no output on a ``CorefKitError``,
``ValueError`` or ``OSError``, and writes to stdout, ``-o``,
``--assignments`` or ``--out-prefix``. Library functions are looked up
on their modules at each run, so a test that patches one there reaches
this side too.
"""
import logging
import os
from fractions import Fraction

from corefkit import builder, conll, lexicon, metrics, resolver, stats, transform
from corefkit.errors import CorefKitError, EmptyCorpusError
from corefkit.model import Corpus

FAILURES = (CorefKitError, ValueError, OSError)  # exit 2, one error line

# Each subcommand's options, each with how many values it takes: none,
# one, or one or more ("+").
WRITER = "-o=1 --config=1 "
VARIANT = WRITER + ("--seed=1 --assignments=1 --lexicon=1 --no-anonymize=0 "
                    "--no-neutralize-nouns=0 ")
OPTIONS = {command: dict(option.split("=") for option in options.split())
           for command, options in {
    "stats": "--config=1 --forms=+ --summary-only=0",
    "strip-singletons": "-o=1",
    "transform": WRITER + ("--paradigm=1 --anonymize=0 --neutralize-nouns=0 "
                           "--lexicon=1 --jobs=1"),
    "delex": WRITER + "--jobs=1",
    "cda": VARIANT,
    "sample": ("--fraction=1 --count=1 --partitions=1 --seed=1 "
               "--out-prefix=1"),
    "unseen": VARIANT + "--fixed=1",
    "resolve-baseline": WRITER + "--window=1 --no-string-match=0 --jobs=1",
    "score": WRITER + "--gold=1 --pred=1 --macro=0 --ignore-singletons=0",
}.items()}


def parsed(argv):
    """The subcommand of ``argv`` and its options by flag, with the
    corpus argument (``-`` by default) as ``"input"``."""
    command, *rest = argv
    table = OPTIONS[command]
    options, positional, i = {}, [], 0
    while i < len(rest):
        arg, i = rest[i], i + 1
        if arg == "-" or not arg.startswith("-"):
            positional.append(arg)
            continue
        if arg not in table:
            raise ValueError(f"the reference does not know {command} {arg}")
        if table[arg] == "0":
            options[arg] = True
        elif table[arg] == "1":
            options[arg], i = rest[i], i + 1
        else:
            options[arg] = []
            while i < len(rest) and (rest[i] == "-"
                                     or not rest[i].startswith("-")):
                options[arg].append(rest[i])
                i += 1
    if len(positional) > (command != "score"):
        raise ValueError(f"the reference takes one input, not {positional}")
    options["input"] = positional[0] if positional else "-"
    return command, options


class Streams:
    """One run's stdin, read once, and what it reports on stderr."""

    def __init__(self, stdin_text):
        self.stdin, self.stderr = stdin_text, []

    def read(self, path):
        if path == "-":
            text, self.stdin = self.stdin, ""
            return text
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    def corpus(self, path, text=None):
        """The corpus at ``path`` (or ``text``), its diagnostics reported."""
        try:
            corpus, diagnostics = conll.parse_corpus(
                self.read(path) if text is None else text)
        except EmptyCorpusError as exc:
            corpus, diagnostics = exc, exc.diagnostics
        self.stderr += [f"{path}:{d.line_number}: {d.severity}: {d.message}\n"
                        for d in diagnostics]
        if isinstance(corpus, Exception):
            raise corpus
        return corpus

    def config(self, path):
        if path is None:
            return transform.ClassifierConfig()
        return transform.ClassifierConfig.from_text(self.read(path))

    def lexicon(self, path):
        """The noun lexicon at ``path`` (None without one) and the text
        of the duplicate-key warnings its loading logs."""
        if path is None:
            return None, ""
        logged, handler = [], logging.Handler()
        handler.emit = lambda record: logged.append(
            f"WARNING: {record.getMessage()}\n")
        logger = logging.getLogger("corefkit.lexicon")
        logger.addHandler(handler)
        try:
            return lexicon.load_noun_lexicon(self.read(path)), "".join(logged)
        finally:
            logger.removeHandler(handler)


def placed(options, text, assignment=None):
    """(stdout or None, [(path, text)]): ``text`` at ``-o`` or on stdout,
    then the assignment TSV of ``cda`` and ``unseen`` at
    ``--assignments``, or beside the ``-o`` file without it."""
    output = options.get("-o")
    to_file = bool(output) and output != "-"
    stdout, files = (None, [(output, text)]) if to_file else (text, [])
    path = options.get("--assignments",
                       output + ".assignments.tsv" if to_file else None)
    if assignment is None or path is None:
        return stdout, files
    tsv = "".join(f"{doc_id}\t{name}\n" for doc_id, name in assignment.items())
    if path != "-":
        return stdout, files + [(path, tsv)]
    if stdout is not None:
        raise CorefKitError("--assignments - needs -o FILE: the corpus "
                            "would also go to stdout")
    return tsv, files


def mapped(command, options, corpus, config, nouns):
    """The corpus that writer ``command`` writes, and its assignment."""
    get = options.get
    seed = int(get("--seed", 0))
    variant = transform.TransformOptions(not get("--no-anonymize"),
                                         not get("--no-neutralize-nouns"))
    if command == "cda":
        return builder.build_cda(corpus, seed, config, nouns, variant)
    if command == "unseen":
        return builder.build_unseen(corpus, seed, get("--fixed"), config,
                                    nouns, variant)
    paradigm = get("--paradigm") and lexicon.get_paradigm(get("--paradigm"))
    steps = transform.TransformOptions(bool(get("--anonymize")),
                                       bool(get("--neutralize-nouns")))
    sieves = resolver.ResolverConfig(int(get("--window", 2)),
                                     not get("--no-string-match"))
    each = {"transform": lambda document: transform.pronoun_specific(
                document, paradigm, config, nouns, steps),
            "delex": lambda document: transform.delexicalize(document, config),
            "resolve-baseline": lambda document: resolver.resolve(
                document, sieves, config),
            "strip-singletons": lambda document: conll.strip_singletons(
                document)}[command]
    return Corpus(tuple(map(each, corpus.documents))), None


def writer_output(streams, command, options):
    """A corpus writer: a load error comes after the parse diagnostics
    and an empty corpus, the lexicon's warnings after both."""
    text = streams.read(options["input"])
    try:
        config = streams.config(options.get("--config"))
        nouns, warnings = streams.lexicon(options.get("--lexicon"))
        failure = None
    except FAILURES as exc:
        failure = exc
    corpus = streams.corpus(options["input"], text)
    if failure is not None:
        raise failure
    streams.stderr.append(warnings)
    corpus, assignment = mapped(command, options, corpus, config, nouns)
    return placed(options, conll.serialize_corpus(corpus), assignment)


def sample_output(streams, command, options):
    corpus = streams.corpus(options["input"])
    n = len(corpus.documents)
    if "--count" in options:
        count = int(options["--count"])
        if not 1 <= count <= n:
            raise CorefKitError(f"partition size {count} outside 1..{n}")
        fraction = Fraction(count, n)
    else:
        fraction = Fraction(options["--fraction"])
    parts = ["".join(f"{doc_id}\n" for doc_id in ids)
             for ids in builder.sample_partitions(corpus, builder.PartitionSpec(
                 fraction, int(options["--partitions"]),
                 int(options.get("--seed", 0))))]
    prefix = options.get("--out-prefix")
    if prefix:
        return None, [(f"{prefix}{i}.txt", part) for i, part in enumerate(parts)]
    return "\n".join(f"# partition {i}\n{part}"
                     for i, part in enumerate(parts)), []


# The stats table's count columns after the total, as the report names them.
BUCKETS = (("subj", "personal_subject"), ("obj", "personal_object"),
           ("poss", "possessive"), ("rel", "relative"),
           ("dem", "demonstrative"), ("other", "other"))


def stats_text(report):
    """The per-form table, if any, each column as wide as its widest cell
    and two spaces apart, the counts right-aligned; then the totals."""
    table = [["form", "total", *(name for name, _ in BUCKETS), "3sg"]]
    table += [[row.form, str(row.total),
               *(str(row.by_function[bucket]) for _, bucket in BUCKETS),
               str(row.third_singular)] for row in report.forms]
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    text = "".join(
        f"{form:<{widths[0]}}" + "".join(f"  {cell:>{width}}" for cell, width
                                         in zip(counts, widths[1:])) + "\n"
        for form, *counts in table) + "\n" if report.forms else ""
    return text + (
        f"token_count={report.token_count}\n"
        f"pronoun_count={report.pronoun_count}\n"
        f"pronoun_proportion={report.pronoun_proportion:.6f}\n"
        f"third_singular_count={report.third_singular_count}\n"
        f"third_singular_share={report.third_singular_share:.6f}\n"
        f"masculine_count={report.masculine_count}\n"
        f"masculine_share={report.masculine_share:.6f}\n")


def stats_output(streams, command, options):
    corpus = streams.corpus(options["input"])
    config = streams.config(options.get("--config"))
    forms = () if options.get("--summary-only") else options.get("--forms")
    return stats_text(stats.pronoun_frequencies(corpus, forms, config)), []


def score_output(streams, command, options):
    gold = streams.corpus(options["--gold"])
    pred = streams.corpus(options["--pred"])
    report = metrics.evaluate(gold, pred,
                              streams.config(options.get("--config")),
                              bool(options.get("--ignore-singletons")),
                              bool(options.get("--macro")))
    return placed(options, metrics.format_report(report) + "\n\n"
                  + metrics.report_keyvalues(report) + "\n")


OUTPUTS = {"stats": stats_output, "sample": sample_output,
           "score": score_output}


def reference(argv, stdin_text=""):
    """(exit code, stdout, {path: text} of the written files, stderr)
    of the command line ``argv`` with ``stdin_text`` on stdin."""
    command, options = parsed(argv)
    streams = Streams(stdin_text)
    try:
        stdout, files = OUTPUTS.get(command, writer_output)(streams, command,
                                                            options)
        named = {}
        for path, _ in files:
            real = os.path.realpath(path)
            if real in named:
                raise CorefKitError(f"outputs {named[real]!r} and {path!r} "
                                    "name the same file")
            named[real] = path
    except FAILURES as exc:
        return 2, "", {}, "".join(streams.stderr) + f"corefkit: error: {exc}\n"
    return 0, stdout or "", dict(files), "".join(streams.stderr)
