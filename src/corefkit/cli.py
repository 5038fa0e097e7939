"""Command line interface for the toolkit.

Every subcommand reads the corpus format from a file path (or ``-`` for
stdin) and writes to stdout unless ``-o`` names a file. Exit codes:
0 success, 1 usage error, 2 data or I/O error. All output is assembled
before anything is written, and output files are moved into place only
once every one of them is written, and moved back if a later one or
stdout fails, so a failing run produces no partial output.
Identical arguments and inputs give byte-identical outputs. Every
command runs in this one process, which :func:`run` ends with
``os._exit`` once stdout and stderr are flushed, skipping the
interpreter's teardown.
"""
from __future__ import annotations

import argparse
import errno
import functools
import gc
import os
import stat
import sys
from typing import TYPE_CHECKING, Iterator

# Each handler imports the modules it runs, so a command loads only its
# own layers; the top imports only what every command needs.
from corefkit import __version__
from corefkit.errors import (CorefKitError, EmptyCorpusError, _Fresh,
                             _value_type)
from corefkit.lexicon import builtin_paradigms, get_paradigm

if TYPE_CHECKING:
    from corefkit.stats import FrequencyReport
    from corefkit.transform import ClassifierConfig

_PARADIGM_NAMES = tuple(p.name for p in builtin_paradigms())
# The errors a run reports with exit code 2 and one error line.
_FAILURES = (CorefKitError, ValueError, OSError)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@_value_type
class _Output:
    stdout: str | None = None
    files: list[tuple[str, str]] = _Fresh(list)  # (path, text)


def _stdio(name: str):
    """``sys.stdin`` or ``sys.stdout``. Python sets it to None when its
    descriptor was closed at start-up; using it is then an I/O error."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _report(text: str) -> None:
    """Write ``text`` to stderr. Stderr carries only diagnostics,
    warnings and the error line, so a closed or failing stderr loses
    them and changes neither the outputs nor the exit code."""
    stream = sys.stderr
    if not text or stream is None:
        return
    try:
        stream.write(text)
        stream.flush()
    except (OSError, ValueError):
        # As in _write_stdout: closing drops what stayed buffered, which
        # the interpreter's exit would otherwise retry and report.
        try:
            stream.close()
        except OSError:
            pass


def _read_text(path: str) -> str:
    if path == "-":
        return _stdio("stdin").read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _kept(path: str, lines: list[str]) -> Iterator:
    """Yield the kept documents of ``lines``, the input at ``path``, as
    the rows (``conll._Rows``) that :func:`corefkit.conll._read` gives.
    Once the last is read, print the parse diagnostics, and raise
    :class:`EmptyCorpusError` if no document was kept."""
    from corefkit.conll import _read

    diagnostics: list = []
    kept = False
    for document in _read(lines, diagnostics):
        kept = True
        yield document
    _report("".join(f"{path}:{d.line_number}: {d.severity}: {d.message}\n"
                    for d in diagnostics))
    if not kept:
        raise EmptyCorpusError("no parseable document in input")


def _load_classifier(path: str | None) -> ClassifierConfig:
    from corefkit.transform import ClassifierConfig

    if path is None:
        return ClassifierConfig()
    with open(path, encoding="utf-8") as handle:
        return ClassifierConfig.from_text(handle)


def _load_lexicon(path: str | None):
    """The noun lexicon at ``path`` (None without one) and the text of
    its duplicate-key warnings, which the caller prints after the parse
    diagnostics."""
    if path is None:
        return None, ""
    from corefkit.lexicon import _read_lexicon

    with open(path, encoding="utf-8") as handle:
        lexicon, warnings = _read_lexicon(handle.read())
    return lexicon, "".join(f"WARNING: {warning}\n" for warning in warnings)


def _to_output(args, text: str) -> _Output:
    """``text`` bound for the ``-o`` file, or for stdout without one."""
    if args.output not in (None, "-"):
        return _Output(files=[(args.output, text)])
    return _Output(stdout=text)


def _assignment_tsv(assignment: dict[str, str]) -> str:
    return "".join(f"{doc_id}\t{name}\n" for doc_id, name in assignment.items())


def _with_assignments(args, result: _Output, assignment: dict[str, str]) -> _Output:
    path = args.assignments
    if path is None and args.output not in (None, "-"):
        path = args.output + ".assignments.tsv"
    if path == "-":
        if result.stdout is not None:
            raise CorefKitError("--assignments - needs -o FILE: the corpus "
                                "would also go to stdout")
        return _Output(_assignment_tsv(assignment), result.files)
    if path is not None:
        return _Output(result.stdout,
                       [*result.files, (path, _assignment_tsv(assignment))])
    return result


def _mapped_output(args, prepare) -> _Output:
    """The input parsed, mapped, checked and serialized one document at
    a time, with no token grid: of each document only its text is kept.

    ``prepare(lines)`` loads what the mapping needs and returns it and
    any warnings to print. The mapping takes a kept document's rows
    (``conll._Rows``) and returns them mapped, keeping the id, with the
    messages of the validation errors of what it changed, in
    ``validate_corpus``'s order. Reported in this order: the parse
    diagnostics, then the first of an empty corpus, an error of
    ``prepare``, the first error the mapping raised (the mapping stops,
    the parse does not) and the first validation error (the one
    ``serialize_corpus`` raises of the library mapping).
    """
    from corefkit.conll import _document_text
    from corefkit.errors import ValidationError

    lines = _read_text(args.input).splitlines()
    try:
        mapping, warnings = prepare(lines)
        failure = None
    except _FAILURES as exc:
        mapping, warnings, failure = None, "", exc
    texts: list[str] = []
    invalid = None
    for document in _kept(args.input, lines):
        if mapping is None:
            continue
        try:
            document, errors = mapping(document)
        except Exception as exc:  # reported after the diagnostics
            mapping, failure = None, exc
            continue
        if errors and invalid is None:
            invalid, texts = errors[0], []  # nothing more is written
        if invalid is None:
            texts.append(_document_text(*document))
    del lines
    _report(warnings)
    if failure is not None:
        raise failure
    if invalid is not None:
        raise ValidationError(f"corpus failed validation: {invalid}")
    return _to_output(args, "".join(texts))


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
    """Count from the rows: the kept documents' tokens are tallied by
    ``(pos, feats, form)`` one document at a time (``conll._tally``), and
    no token grid is built. A ``--config`` error comes after the parse
    diagnostics."""
    from corefkit.conll import _tally
    from corefkit.stats import DEFAULT_REPORT_FORMS, _count

    tally = _tally(_kept(args.input, _read_text(args.input).splitlines()))
    config = _load_classifier(args.config)
    if args.summary_only:
        wanted = ()
    else:
        wanted = tuple(args.forms) if args.forms else DEFAULT_REPORT_FORMS
    return _Output(stdout=_render_stats(_count(tally, wanted, config)))


def _cmd_strip_singletons(args) -> _Output:
    from corefkit.conll import _strip_rows

    return _mapped_output(args, lambda lines: (_strip_rows, ""))


def _cmd_transform(args) -> _Output:
    def prepare(lines):
        from corefkit.transform import (TransformOptions, _rewrite_rows,
                                        _specific)

        config = _load_classifier(args.config)
        lexicon, warnings = _load_lexicon(args.lexicon)
        paradigm = get_paradigm(args.paradigm) if args.paradigm else None
        rule = _specific(paradigm, config, lexicon, TransformOptions(
            anonymize=args.anonymize, neutralize_nouns=args.neutralize_nouns))
        return lambda document: _rewrite_rows(document, rule), warnings

    return _mapped_output(args, prepare)


def _cmd_delex(args) -> _Output:
    def prepare(lines):
        from corefkit.transform import DELEX_TAGS, _rewrite_rows, _rewriter

        rule = _rewriter(_load_classifier(args.config), DELEX_TAGS, delex=True)
        return lambda document: _rewrite_rows(document, rule), ""

    return _mapped_output(args, prepare)


def _variant_output(args, assign) -> _Output:
    """``cda`` and ``unseen``: each kept document rewritten with the
    paradigm that ``assign(kept ids)`` gives its id, the ids read by a
    first parse, and the assignment sidecar."""
    assignment: dict[str, str] = {}

    def prepare(lines):
        from corefkit.builder import _rules
        from corefkit.conll import _read
        from corefkit.transform import TransformOptions, _rewrite_rows

        config = _load_classifier(args.config)
        lexicon, warnings = _load_lexicon(args.lexicon)
        options = TransformOptions(anonymize=not args.no_anonymize,
                                   neutralize_nouns=not args.no_neutralize_nouns)
        assignment.update(assign([rows.id for rows in _read(lines, [])]))
        rules = _rules(assignment, config, lexicon, options)
        return lambda document: _rewrite_rows(
            document, rules[assignment[document.id]]), warnings

    return _with_assignments(args, _mapped_output(args, prepare), assignment)


def _cmd_cda(args) -> _Output:
    from corefkit.builder import _cda_assignment

    return _variant_output(args, lambda ids: _cda_assignment(ids, args.seed))


def _cmd_sample(args) -> _Output:
    from fractions import Fraction

    from corefkit.builder import PartitionSpec, _sample_ids

    ids = [rows.id for rows in _kept(
        args.input, _read_text(args.input).splitlines())]
    n = len(ids)
    if args.count is not None:
        if not 1 <= args.count <= n:
            raise CorefKitError(
                f"partition size {args.count} outside 1..{n}")
        fraction = Fraction(args.count, n)
    else:
        fraction = args.fraction
    partitions = _sample_ids(
        ids, PartitionSpec(fraction, args.partitions, args.seed))
    if args.out_prefix is not None:
        return _Output(files=[(f"{args.out_prefix}{i}.txt",
                               "".join(f"{x}\n" for x in ids))
                              for i, ids in enumerate(partitions)])
    blocks = []
    for i, ids in enumerate(partitions):
        blocks.append(f"# partition {i}\n" + "".join(f"{x}\n" for x in ids))
    return _Output(stdout="\n".join(blocks))


def _cmd_unseen(args) -> _Output:
    from corefkit.builder import _unseen_assignment

    return _variant_output(args, lambda ids: _unseen_assignment(
        ids, args.seed, args.fixed))


def _cmd_resolve_baseline(args) -> _Output:
    def prepare(lines):
        from corefkit.resolver import ResolverConfig, _resolve_rows
        from corefkit.transform import _role_table

        roles = _role_table(_load_classifier(args.config))
        resolver_config = ResolverConfig(
            pronoun_window_sentences=args.window,
            enable_string_match=not args.no_string_match)
        return lambda document: _resolve_rows(
            document, resolver_config, roles), ""

    return _mapped_output(args, prepare)


def _cmd_score(args) -> _Output:
    """Score ``--pred`` against ``--gold``.

    Each step runs in turn, so ``-`` may stand for either side: gold is
    read, ``--config`` is loaded into the role table that picks the
    counted pronouns, gold is parsed and reported, then the prediction
    is read, parsed and reported. Neither side builds a token grid:
    each kept document's rows become its scoring view
    (``conll._view``) as it is read, gold's with the counted pronouns,
    and only the views are kept. What is
    reported comes in this order: a gold read error, the gold
    diagnostics, an empty gold corpus (the prediction is then never
    read), an error reading the prediction, its diagnostics, an empty
    prediction, a ``--config`` error, then the alignment and grid
    errors of scoring.
    """
    from corefkit.conll import _view
    from corefkit.metrics import _evaluate_views, format_report, report_keyvalues
    from corefkit.transform import _role_table

    lines = _read_text(args.gold).splitlines()
    try:
        roles = _role_table(_load_classifier(args.config))
    except _FAILURES as exc:
        config_failure, roles = exc, None  # raised after the prediction's report
    else:
        config_failure = None
    gold = [_view(rows, roles) for rows in _kept(args.gold, lines)]
    del lines  # freed before the prediction is read
    pred = [_view(rows) for rows in _kept(
        args.pred, _read_text(args.pred).splitlines())]
    if config_failure is not None:
        raise config_failure
    report = _evaluate_views(gold, pred, args.ignore_singletons, args.macro)
    return _to_output(
        args, format_report(report) + "\n\n" + report_keyvalues(report) + "\n")


def _fraction(text: str):
    """``--fraction`` as a ``Fraction`` in (0, 1], importing ``fractions``
    only when the option is given."""
    from fractions import Fraction

    try:
        value = Fraction(text)
    except ZeroDivisionError as exc:  # "1/0": a usage error, not a crash
        raise ValueError(str(exc)) from None
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], not {text}")
    return value


# argparse names the type in its usage error: "invalid Fraction value: 'x'".
_fraction.__name__ = "Fraction"


def _output_path(path: str) -> str:
    """``-o``, ``--assignments`` and ``--out-prefix``: never empty, since
    an empty path names no file to write."""
    if not path:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return path


def _file_path(path: str) -> str:
    """``--config`` and ``--lexicon``: a file, never ``-``. Stdin is
    where a corpus is read from, so reading it again for the option
    would silently see an empty file."""
    if path == "-":
        raise argparse.ArgumentTypeError(
            "needs a file path; '-' (stdin) is left for the corpus")
    return path


def _at_least(low: int):
    """An argparse type: an ``int`` no smaller than ``low``."""
    def number(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, not {value}")
        return value

    # argparse names the type in its usage error: "invalid int value: 'x'".
    number.__name__ = "int"
    return number


# Options that several subcommands take, each declared once.
_SHARED_OPTIONS = {
    "input": (("input",), dict(nargs="?", default="-", metavar="INPUT",
                               help="corpus file, or - for stdin (default)")),
    "output": (("-o", "--output"), dict(type=_output_path,
                                        help="output file (default: stdout)")),
    "config": (("--config",), dict(type=_file_path,
                                   help="classifier configuration file")),
    "lexicon": (("--lexicon",),
                dict(type=_file_path,
                     help="noun lexicon file (default: builtin)")),
    "jobs": (("--jobs",), dict(type=_at_least(1), default=1,
                               help="accepted and ignored: the command runs "
                                    "in one process")),
    "seed": (("--seed",), dict(type=int, default=0)),
    "assignments": (("--assignments",),
                    dict(type=_output_path,
                         help="write the document-to-paradigm TSV here "
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


@functools.cache
def build_parser() -> _ArgumentParser:
    """The parser of every subcommand, built whole on the first call and
    the same object on every later one, so a process builds it at most
    once (and importing this module builds none)."""
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

    p = commands.add_parser(
        "delex", help="replace pronouns by <SUBJ>/<OBJ>/<POSS> tags")
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
    group.add_argument("--fraction", type=_fraction,
                       help="partition size as a fraction of the corpus, "
                            "for example 0.1 or 1/8 (floor rounding)")
    group.add_argument("--count", type=int,
                       help="exact partition size in documents")
    p.add_argument("--partitions", type=_at_least(1), required=True,
                   help="number of partitions to draw")
    _add_shared(p, "seed")
    p.add_argument("--out-prefix", type=_output_path,
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
    p.add_argument("--window", type=_at_least(0), default=2,
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


def _write(files: list[tuple[str, str]], stdout: str | None) -> None:
    """Write all files and ``stdout`` (unless None) to stdout, or none.

    Two paths that resolve to one file (the same spelling, ``./X`` for
    ``X``, or a symlink to it) are an error, raised before anything is
    written: one text would silently replace the other.

    Each file first goes to a temp file beside its target, with the mode
    of the file it replaces. Temp and backup files are named
    ``.corefkit.PID.N.tmp`` and ``.old``, whatever the target's name, so
    they fit wherever it fits; an error names the target's path as given,
    never them. A path ending in a separator names a directory, which is
    an error. A symlink is followed, so the file it names
    is written and the link stays. A target that exists but is not a
    regular file (a FIFO, say) cannot be replaced: it is written
    directly, after every temp file, so that write alone is not
    all-or-nothing. Then each target is replaced in turn, and stdout is
    written last. An existing target that a later step could still fail
    after is first hard-linked to a backup beside it, so a run with one
    file and no stdout takes no backup. On any error the replaced
    targets are put back from their backups, or removed where none
    existed before; the temp files, the backups and the missing parent
    directories made for them are removed. A target that cannot be put
    back is named in the error, and its backup, if any, is kept.
    """
    targets: dict[str, str] = {}
    for path, _ in files:
        real = os.path.realpath(path)
        if real in targets:
            raise CorefKitError(f"outputs {targets[real]!r} and {path!r} "
                                "name the same file")
        targets[real] = path
    staged: list[tuple[str, str, bool]] = []  # (temp, target, existed)
    direct: list[tuple[str, str]] = []
    made: list[str] = []  # missing parent directories, in creation order
    backups: dict[str, str] = {}  # target -> its backup
    given: dict[str, str] = {}  # temp or backup -> the path it stands for
    replaced = 0
    try:
        for i, (path, content) in enumerate(files):
            target = os.path.realpath(path) if os.path.islink(path) else path
            try:
                mode = os.stat(target).st_mode
            except OSError:
                mode = None  # not there yet; staging reports any other cause
            directory, name = os.path.split(target)
            # Caught here, a directory target (or a path ending in a
            # separator) would only fail in os.replace, after earlier
            # targets were already replaced.
            if not name or mode is not None and stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        path)
            if mode is not None and not stat.S_ISREG(mode):
                direct.append((target, content))
                continue
            if directory:
                missing, parent = [], directory
                while parent and not os.path.exists(parent):
                    missing.append(parent)
                    parent = os.path.dirname(parent)
                made += reversed(missing)  # before any is made
                os.makedirs(directory, exist_ok=True)
            temp = os.path.join(directory, f".corefkit.{os.getpid()}.{i}.tmp")
            given[temp] = path
            with open(temp, "x", encoding="utf-8", newline="") as handle:
                staged.append((temp, target, mode is not None))
                if mode is not None:
                    os.chmod(temp, stat.S_IMODE(mode))
                handle.write(content)
        for target, content in direct:
            with open(target, "w", encoding="utf-8", newline="") as handle:
                handle.write(content)
        # Without stdout, nothing can fail after the last replace.
        last = len(staged) - (stdout is None)
        for temp, target, existed in staged[:last]:
            if existed:
                backup = os.path.splitext(temp)[0] + ".old"
                given[backup] = given[temp]
                os.link(target, backup)
                backups[target] = backup
        for temp, target, _ in staged:
            os.replace(temp, target)
            replaced += 1
        if stdout is not None:
            _write_stdout(stdout)
    except BaseException as exc:
        failed = []
        for _, target, existed in reversed(staged[:replaced]):
            backup = backups.pop(target, None)  # moved back, or kept
            try:
                if backup is not None:
                    os.replace(backup, target)
                elif not existed:
                    os.remove(target)
            except OSError as error:
                failed.append(f"could not restore {target!r}"
                              + (f" from {backup!r}" if backup else "")
                              + f": {error}")
        unused = [temp for temp, _, _ in staged[replaced:]]
        for path in unused + list(backups.values()):
            try:
                os.remove(path)
            except OSError:
                pass
        for directory in reversed(made):  # deepest first
            try:
                os.rmdir(directory)
            except OSError:
                pass
        error = exc
        if isinstance(exc, OSError) and {exc.filename,
                                         exc.filename2} & given.keys():
            # The error names the output path, not its temp or backup file.
            error = OSError(exc.errno, exc.strerror,
                            given.get(exc.filename) or given[exc.filename2])
        if failed and isinstance(error, _FAILURES):
            raise CorefKitError("; ".join([str(error), *failed])) from exc
        if error is not exc:
            raise error from exc
        raise
    for backup in backups.values():
        try:
            os.remove(backup)
        except OSError:
            pass  # the outputs are all in place


def _write_stdout(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        # What could not be written stays buffered, and the interpreter
        # would retry it at exit and report the failure a second time.
        # Closing the stream drops it (the close itself fails the same way).
        try:
            sys.stdout.close()
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        result = args.handler(args)
        if result.stdout is not None:
            _stdio("stdout")  # a closed stdout fails before any file is written
        _write(result.files, result.stdout)
    except _FAILURES as exc:
        _report(f"corefkit: error: {exc}\n")
        return 2
    return 0


def _watched() -> bool:
    """Whether a profiler or tracer is attached (through ``sys.monitoring``
    on Python 3.12 and later, where cProfile registers): it reports at,
    or relies on, the interpreter's normal exit."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(  # tool ids are 0 to 5
        monitoring.get_tool(tool) is not None for tool in range(6))


def run() -> None:
    """Process entry point: run :func:`main` and exit with its code.

    Each handler imports only the modules its command runs (``transform``
    never loads the scorer, the resolver or the stats code), so a
    process pays the start-up of its own layers only.

    The cyclic garbage collector is switched off first, because it
    would only rescan live objects: the corpus data of a command holds
    no reference cycles, so reference counting frees it, and the few
    cycles of the argument parser last until the process exits right
    after ``main`` returns. ``main`` itself leaves the collector alone.

    Stdin and stdout are read and written as strict UTF-8, as files are,
    whatever the locale or ``PYTHONIOENCODING`` say.

    Once ``main`` has returned and stdout and stderr (where not None)
    have flushed, the process ends with ``os._exit``. That skips the
    interpreter's finalization (a last collection, module teardown and
    freeing every object), which costs a short command about a tenth of
    its time and does nothing a command needs: ``main`` writes and
    closes every output file and flushes stdout itself, and no command
    registers an ``atexit`` handler. The normal ``sys.exit`` is kept
    when a flush fails (a closed pipe, or the stdout ``_write_stdout``
    closed after a failed write), so the interpreter's exit reports it
    and sets the status as before, and when a profiler or tracer is
    attached, so ``python -m cProfile -m corefkit.cli`` still prints
    its report. Library callers of ``main`` always keep the normal exit.
    """
    gc.disable()
    for stream in (sys.stdin, sys.stdout):
        if stream is not None:  # None when the descriptor is closed
            stream.reconfigure(encoding="utf-8", errors="strict")
    code = main()
    if not _watched():
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except (OSError, ValueError):
            pass  # reported by the normal exit below
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
