"""Command line interface for the toolkit.

Every subcommand reads the corpus format from a file path (or ``-`` for
stdin) and writes to stdout unless ``-o`` names a file. Exit codes:
0 success, 1 usage error, 2 data or I/O error. All output is assembled
before anything is written, and output files are moved into place only
once every one of them is written, so a failing run produces no partial
output.
Identical arguments and inputs give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from corefkit import __version__
from corefkit.builder import PartitionSpec, build_cda, build_unseen, sample_partitions
from corefkit.conll import parse_corpus, serialize_corpus, strip_singletons
from corefkit.errors import CorefKitError, EmptyCorpusError
from corefkit.lexicon import (builtin_paradigms, get_paradigm,
                              load_noun_lexicon)
from corefkit.metrics import evaluate, format_report, report_keyvalues
from corefkit.model import Corpus, map_documents
from corefkit.resolver import ResolverConfig, resolve
from corefkit.stats import FrequencyReport, corpus_summary, pronoun_frequencies
from corefkit.transform import (ClassifierConfig, TransformOptions,
                                delexicalize, pronoun_specific)

_PARADIGM_NAMES = tuple(p.name for p in builtin_paradigms())


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class _Output:
    stdout: str | None = None
    files: dict[str, str] = field(default_factory=dict)


def _read_corpus(path: str) -> Corpus:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    try:
        corpus, diagnostics = parse_corpus(text)
    except EmptyCorpusError as exc:
        _print_diagnostics(path, exc.diagnostics)
        raise
    _print_diagnostics(path, diagnostics)
    return corpus


def _print_diagnostics(path: str, diagnostics) -> None:
    for diagnostic in diagnostics:
        print(f"{path}:{diagnostic.line_number}: {diagnostic.severity}: "
              f"{diagnostic.message}", file=sys.stderr)


def _load_classifier(path: str | None) -> ClassifierConfig:
    if path is None:
        return ClassifierConfig()
    with open(path, encoding="utf-8") as handle:
        return ClassifierConfig.from_text(handle)


def _load_lexicon(path: str | None):
    if path is None:
        return None
    with open(path, encoding="utf-8") as handle:
        return load_noun_lexicon(handle)


def _to_output(args, text: str) -> _Output:
    """``text`` bound for the ``-o`` file, or for stdout without one."""
    if args.output and args.output != "-":
        return _Output(files={args.output: text})
    return _Output(stdout=text)


def _corpus_result(args, corpus: Corpus) -> _Output:
    return _to_output(args, serialize_corpus(corpus))


def _assignment_tsv(assignment: dict[str, str]) -> str:
    return "".join(f"{doc_id}\t{name}\n" for doc_id, name in assignment.items())


def _with_assignments(args, result: _Output, assignment: dict[str, str]) -> _Output:
    path = args.assignments
    if path is None and args.output and args.output != "-":
        path = args.output + ".assignments.tsv"
    if path is not None:
        result.files[path] = _assignment_tsv(assignment)
    return result


def _render_stats(report: FrequencyReport) -> str:
    lines = []
    if report.forms:
        headers = ("form", "total", "subj", "obj", "poss", "rel", "dem",
                   "other", "3sg")
        rows = [headers]
        for row in report.forms:
            counts = row.by_function
            rows.append((
                row.form, str(row.total),
                str(counts["personal_subject"]), str(counts["personal_object"]),
                str(counts["possessive"]), str(counts["relative"]),
                str(counts["demonstrative"]), str(counts["other"]),
                str(row.third_singular),
            ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
        for row in rows:
            cells = [row[0].ljust(widths[0])]
            cells += [row[i].rjust(widths[i]) for i in range(1, len(headers))]
            lines.append("  ".join(cells).rstrip())
        lines.append("")
    lines += [
        f"token_count={report.token_count}",
        f"pronoun_count={report.pronoun_count}",
        f"pronoun_proportion={report.pronoun_proportion:.6f}",
        f"third_singular_count={report.third_singular_count}",
        f"third_singular_share={report.third_singular_share:.6f}",
        f"masculine_count={report.masculine_count}",
        f"masculine_share={report.masculine_share:.6f}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_stats(args) -> _Output:
    corpus = _read_corpus(args.input)
    config = _load_classifier(args.config)
    if args.summary_only:
        report = corpus_summary(corpus, config)
    else:
        forms = tuple(args.forms) if args.forms else None
        report = pronoun_frequencies(corpus, forms, config)
    return _Output(stdout=_render_stats(report))


def _cmd_strip_singletons(args) -> _Output:
    corpus = _read_corpus(args.input)
    return _corpus_result(args, map_documents(corpus, strip_singletons))


def _cmd_transform(args) -> _Output:
    corpus = _read_corpus(args.input)
    config = _load_classifier(args.config)
    lexicon = _load_lexicon(args.lexicon)
    paradigm = get_paradigm(args.paradigm) if args.paradigm else None
    options = TransformOptions(anonymize=args.anonymize,
                               neutralize_nouns=args.neutralize_nouns)
    rewritten = map_documents(
        corpus,
        lambda d: pronoun_specific(d, paradigm, config, lexicon, options),
        args.jobs)
    return _corpus_result(args, rewritten)


def _cmd_delex(args) -> _Output:
    corpus = _read_corpus(args.input)
    config = _load_classifier(args.config)
    return _corpus_result(
        args, map_documents(corpus, lambda d: delexicalize(d, config), args.jobs))


def _variant_inputs(args):
    """Corpus, classifier, lexicon and options of ``cda`` and ``unseen``."""
    corpus = _read_corpus(args.input)
    config = _load_classifier(args.config)
    lexicon = _load_lexicon(args.lexicon)
    options = TransformOptions(anonymize=not args.no_anonymize,
                               neutralize_nouns=not args.no_neutralize_nouns)
    return corpus, config, lexicon, options


def _cmd_cda(args) -> _Output:
    corpus, config, lexicon, options = _variant_inputs(args)
    augmented, assignment = build_cda(corpus, args.seed, config, lexicon, options)
    return _with_assignments(args, _corpus_result(args, augmented), assignment)


def _cmd_sample(args) -> _Output:
    corpus = _read_corpus(args.input)
    n = len(corpus.documents)
    if args.count is not None:
        if not 1 <= args.count <= n:
            raise CorefKitError(
                f"partition size {args.count} outside 1..{n}")
        spec = PartitionSpec(Fraction(args.count, n), args.partitions, args.seed)
        partitions = sample_partitions(corpus, spec, count=args.count)
    else:
        spec = PartitionSpec(args.fraction, args.partitions, args.seed)
        partitions = sample_partitions(corpus, spec)
    if args.out_prefix:
        files = {}
        for i, ids in enumerate(partitions):
            files[f"{args.out_prefix}{i}.txt"] = "".join(f"{x}\n" for x in ids)
        return _Output(files=files)
    blocks = []
    for i, ids in enumerate(partitions):
        blocks.append(f"# partition {i}\n" + "".join(f"{x}\n" for x in ids))
    return _Output(stdout="\n".join(blocks))


def _cmd_unseen(args) -> _Output:
    corpus, config, lexicon, options = _variant_inputs(args)
    rewritten, assignment = build_unseen(corpus, args.seed, args.fixed,
                                         config, lexicon, options)
    return _with_assignments(args, _corpus_result(args, rewritten), assignment)


def _cmd_resolve_baseline(args) -> _Output:
    corpus = _read_corpus(args.input)
    classifier = _load_classifier(args.config)
    resolver_config = ResolverConfig(
        pronoun_window_sentences=args.window,
        enable_string_match=not args.no_string_match)
    resolved = map_documents(
        corpus, lambda d: resolve(d, resolver_config, classifier), args.jobs)
    return _corpus_result(args, resolved)


def _cmd_score(args) -> _Output:
    gold = _read_corpus(args.gold)
    pred = _read_corpus(args.pred)
    config = _load_classifier(args.config)
    report = evaluate(gold, pred, config=config,
                      ignore_singletons=args.ignore_singletons,
                      macro_pronouns=args.macro)
    return _to_output(
        args, format_report(report) + "\n\n" + report_keyvalues(report) + "\n")


# Options that several subcommands take, each declared once.
_SHARED_OPTIONS = {
    "input": (("input",), dict(nargs="?", default="-", metavar="INPUT",
                               help="corpus file, or - for stdin (default)")),
    "output": (("-o", "--output"), dict(default=None,
                                        help="output file (default: stdout)")),
    "config": (("--config",), dict(help="classifier configuration file")),
    "lexicon": (("--lexicon",),
                dict(help="noun lexicon file (default: builtin)")),
    "jobs": (("--jobs",), dict(type=int, default=1,
                               help="worker threads (default 1; output is "
                                    "identical)")),
    "seed": (("--seed",), dict(type=int, default=0)),
    "assignments": (("--assignments",),
                    dict(help="write the document-to-paradigm TSV here "
                              "(default: OUTPUT.assignments.tsv when -o is "
                              "used)")),
    "no-anonymize": (("--no-anonymize",), dict(action="store_true")),
    "no-neutralize-nouns": (("--no-neutralize-nouns",),
                            dict(action="store_true")),
}


def _add_shared(parser, *names: str) -> None:
    for name in names:
        flags, kwargs = _SHARED_OPTIONS[name]
        parser.add_argument(*flags, **kwargs)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="corefkit",
        description="Rewrite coreference corpora into pronoun-specific "
                    "variants and score predictions.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")

    p = commands.add_parser("stats", help="pronoun frequency report")
    _add_shared(p, "input", "config")
    p.add_argument("--forms", nargs="+", help="forms to tabulate")
    p.add_argument("--summary-only", action="store_true",
                   help="print corpus totals without the per-form table")
    p.set_defaults(handler=_cmd_stats)

    p = commands.add_parser("strip-singletons",
                            help="drop all size-1 clusters")
    _add_shared(p, "input", "output")
    p.set_defaults(handler=_cmd_strip_singletons)

    p = commands.add_parser("transform",
                            help="rewrite pronouns, names and nouns")
    _add_shared(p, "input", "output")
    p.add_argument("--paradigm", choices=_PARADIGM_NAMES,
                   help="target pronoun paradigm (omit for the baseline "
                        "variant that keeps pronoun forms)")
    p.add_argument("--anonymize", action="store_true",
                   help="replace PER tokens by ANON_x placeholders")
    p.add_argument("--neutralize-nouns", action="store_true",
                   help="rewrite gendered nouns with the lexicon")
    _add_shared(p, "config", "lexicon", "jobs")
    p.set_defaults(handler=_cmd_transform)

    p = commands.add_parser("delex",
                            help="replace pronouns by <SUBJ>/<OBJ>/<POSS> tags")
    _add_shared(p, "input", "output", "config", "jobs")
    p.set_defaults(handler=_cmd_delex)

    p = commands.add_parser("cda",
                            help="counterfactually augment with hen/die")
    _add_shared(p, "input", "output", "seed", "assignments", "config",
                "lexicon", "no-anonymize", "no-neutralize-nouns")
    p.set_defaults(handler=_cmd_cda)

    p = commands.add_parser("sample", help="draw training partitions")
    _add_shared(p, "input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fraction", type=Fraction,
                       help="partition size as a fraction of the corpus, "
                            "for example 0.1 or 1/8 (floor rounding)")
    group.add_argument("--count", type=int,
                       help="exact partition size in documents")
    p.add_argument("--partitions", type=int, required=True,
                   help="number of partitions to draw")
    _add_shared(p, "seed")
    p.add_argument("--out-prefix",
                   help="write each partition to PREFIX<i>.txt instead of stdout")
    p.set_defaults(handler=_cmd_sample)

    p = commands.add_parser("unseen", help="rewrite with neopronouns")
    _add_shared(p, "input", "output", "seed")
    p.add_argument("--fixed", choices=_PARADIGM_NAMES,
                   help="use this paradigm for every document instead of "
                        "drawing one neopronoun paradigm per document")
    _add_shared(p, "assignments", "config", "lexicon", "no-anonymize",
                "no-neutralize-nouns")
    p.set_defaults(handler=_cmd_unseen)

    p = commands.add_parser("resolve-baseline",
                            help="run the two-sieve baseline resolver")
    _add_shared(p, "input", "output")
    p.add_argument("--window", type=int, default=2,
                   help="pronoun antecedent window in sentences (default 2)")
    p.add_argument("--no-string-match", action="store_true",
                   help="disable the exact-match sieve")
    _add_shared(p, "config", "jobs")
    p.set_defaults(handler=_cmd_resolve_baseline)

    p = commands.add_parser("score", help="evaluate predictions against gold")
    p.add_argument("--gold", required=True, help="gold corpus file")
    p.add_argument("--pred", required=True, help="predicted corpus file")
    p.add_argument("--macro", action="store_true",
                   help="average the pronoun score per document")
    p.add_argument("--ignore-singletons", action="store_true",
                   help="drop size-1 entities from both sides before LEA")
    _add_shared(p, "config", "output")
    p.set_defaults(handler=_cmd_score)

    return parser


def _write_files(files: dict[str, str]) -> None:
    """Write all files or none.

    Each file first goes to a temp file beside its target. The targets
    are replaced only once every write has succeeded; on any error the
    temp files are removed.
    """
    staged: list[tuple[str, str]] = []
    try:
        for i, (path, content) in enumerate(files.items()):
            # Caught here, a directory target would only fail in
            # os.replace, after earlier targets were already replaced.
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        path)
            directory, name = os.path.split(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            temp = os.path.join(directory, f".{name}.{os.getpid()}.{i}.tmp")
            with open(temp, "x", encoding="utf-8", newline="") as handle:
                staged.append((temp, path))
                handle.write(content)
        for temp, path in staged:
            os.replace(temp, path)
    except BaseException:
        for temp, _ in staged:
            try:
                os.remove(temp)
            except OSError:
                pass
        raise


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        result = args.handler(args)
        _write_files(result.files)
    except (CorefKitError, ValueError, OSError) as exc:
        print(f"corefkit: error: {exc}", file=sys.stderr)
        return 2
    if result.stdout is not None:
        sys.stdout.write(result.stdout)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
