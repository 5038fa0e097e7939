"""The command line contract, for every subcommand and option, on
hostile corpora.

Each run must exit 0 or 2 without a traceback, report what ``reference``
reports, and a corpus it writes must parse back with no diagnostic; a
second run must give the same bytes, and a failing run must leave no
output and no temp file behind.
"""
import ast
import errno
import functools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import corefkit.lexicon
from conftest import FIXTURES, assert_no_child_left, child_env, run, run_in
from corefkit import cli
from corefkit.conll import parse_corpus, serialize_corpus
from reference import parsed, reference
from test_jobs import (COMMANDS, E2E_TEXT, LENIENT_AND_EDGE, POISON,
                       corpus_texts, filled)
from test_score import RESOLVED
from test_stats import PRS

try:
    import resource
except ImportError:  # not on every platform
    resource = None

E2E = str(FIXTURES / "e2e.conll")

# Sends the corpus and the assignment TSV both to stdout: exit 2 on any input.
BOTH_ON_STDOUT = ["unseen", "{input}", "--fixed", "hen", "--assignments", "-"]
# Every subcommand and option, writing to stdout, -o, --assignments or
# --out-prefix. "{input}" and "{other}" name the two drawn corpora, and
# "{config}" a file holding PRS; a run with no input reads "{input}"'s
# text on stdin. "{dir}" is an empty output directory.
RUNS = [
    ["stats", "{input}"],
    ["stats", "{input}", "--forms", "hij", "Die", "hij", "--summary-only"],
    ["stats", "{input}", "--forms", "hij", "Die", "hij"],
    ["stats"],
    ["stats", "--summary-only"],
    ["stats", "--forms", "hen", "HEN", "die"],
    ["stats", "--config", "{config}"],
    ["strip-singletons", "{input}", "-o", "{dir}/s.conll"],
    ["transform", "{input}", "--paradigm", "zem", "--anonymize",
     "--neutralize-nouns", "--lexicon", E2E, "--config", "{config}",
     "--jobs", "2", "-o", "{dir}/t.conll"],
    ["transform", "{input}"],
    ["delex", "{input}", "--config", "{config}", "--jobs", "3",
     "-o", "{dir}/d.conll"],
    ["cda", "{input}", "--seed", "7", "--no-neutralize-nouns",
     "-o", "{dir}/c.conll", "--assignments", "{dir}/c.tsv"],
    ["cda", "{input}", "--lexicon", E2E, "--config", "{config}",
     "--no-anonymize"],
    ["sample", "{input}", "--fraction", "1/2", "--partitions", "2",
     "--out-prefix", "{dir}/part"],
    ["sample", "{input}", "--count", "2", "--partitions", "3"],
    *(["sample", "--fraction", fraction, "--partitions", partitions,
       "--seed", seed, *prefix]
      for fraction, partitions, seed in (("1/2", "3", "4"), ("1", "1", "0"),
                                         ("1/3", "2", "9"), ("1/2", "3", "5"))
      for prefix in ([], ["--out-prefix", "{dir}/part-"])),
    ["unseen", "{input}", "--config", "{config}", "--no-neutralize-nouns",
     "-o", "{dir}/u.conll"],
    BOTH_ON_STDOUT,
    ["unseen", "{input}", "--fixed", "hen", "-o", "{dir}/f.conll",
     "--assignments", "-"],
    ["resolve-baseline", "{input}", "--window", "1", "--no-string-match",
     "--config", "{config}", "--jobs", "2", "-o", "{dir}/r.conll"],
    ["score", "--gold", "{input}", "--pred", "{other}"],
    ["score", "--gold", "{input}", "--pred", "{input}"],
    ["score", "--gold", "{input}", "--pred", "{input}", "--ignore-singletons",
     "--config", "{config}", "-o", "{dir}/score.txt"],
    ["score", "--gold", E2E, "--pred", "{input}", "--macro"],
]
CORPUS_WRITERS = {"strip-singletons", "transform", "delex", "cda", "unseen",
                  "resolve-baseline"}


def inputs(directory, text, other):
    """The paths of "{input}", "{other}" and "{config}", written in
    ``directory``."""
    paths = {}
    for name, content in (("input", text), ("other", other), ("config", PRS)):
        paths[name] = os.path.join(directory, f"{name}.txt")
        with open(paths[name], "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
    return paths


SUBCOMMANDS = cli.build_parser()._subparsers._group_actions[0].choices
# Each subcommand's options but -h, as (subcommand, option strings).
OPTIONS = [(name, action.option_strings)
           for name, parser in SUBCOMMANDS.items()
           for action in parser._actions
           if action.option_strings and "-h" not in action.option_strings]


def test_every_subcommand_is_run():
    assert {argv[0] for argv in RUNS} == set(SUBCOMMANDS)


@pytest.mark.parametrize("name, option_strings", OPTIONS,
                         ids=[f"{name} {strings[-1]}"
                              for name, strings in OPTIONS])
def test_every_option_is_run(name, option_strings):
    """Each option runs in ``RUNS`` or ``COMMANDS``, so that it is
    compared with ``reference``."""
    assert any(argv[0] == name and set(argv) & set(option_strings)
               for argv in [*RUNS, *COMMANDS.values()])


@settings(max_examples=100, deadline=None)
@given(text=corpus_texts(), other=corpus_texts())
@example(*RESOLVED["lenient"])
@example(*RESOLVED["edge"])
@example(E2E_TEXT, "")
def test_every_subcommand_keeps_the_contract(text, other):
    """The examples pair a corpus with its baseline resolution, and
    e2e.conll with an empty corpus."""
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as directory:
        # A lexicon that fails validation, so that corpus writers fail too.
        patch.setattr(corefkit.lexicon, "_read_lexicon",
                      lambda text: (POISON, []))
        paths = inputs(directory, text, other)
        out = os.path.join(directory, "out")
        os.mkdir(out)
        for template in RUNS:
            argv = filled(template, out, **paths)
            first = run_in(out, argv, text)
            assert run_in(out, argv, text) == first == reference(argv, text), \
                argv
            code, stdout, files, stderr = first
            assert code in (0, 2), argv
            assert "Traceback" not in stderr, argv
            assert "without a result" not in stderr, argv
            if code == 2:
                assert stdout == "" and files == {}, argv
                assert stderr.splitlines()[-1].startswith("corefkit: error: ")
            elif argv[0] in CORPUS_WRITERS:
                written = (files[argv[argv.index("-o") + 1]] if "-o" in argv
                           else stdout)
                assert parse_corpus(written)[1] == [], argv
    assert_no_child_left()


def corpora(template):
    """The corpus inputs that ``template`` names, ``-`` for stdin."""
    command, options = parsed(template)
    return ({options["--gold"], options["--pred"]} if command == "score"
            else {options["input"]})


def test_the_lenient_and_edge_corpora_run_cleanly(tmp_path, monkeypatch):
    """Each run of ``RUNS`` whose inputs are "{input}" and "{other}" only
    runs cleanly on both, with "{other}" the baseline resolution, writing
    to each output named; ``BOTH_ON_STDOUT`` fails as on any input."""
    lenient, edge = LENIENT_AND_EDGE["lenient"], LENIENT_AND_EDGE["edge"]
    assert lenient != E2E_TEXT
    # Past the writer's numeral table, and several entries on a token.
    assert re.search(r"^300\t", edge, re.M)
    assert re.search(r"^7\t([^\t]*\t){4}259\t", edge, re.M)
    assert "\t(256|(256|(300)\n" in edge and "\t(257)|1000)\n" in edge
    monkeypatch.setattr(corefkit.lexicon, "_read_lexicon",
                        lambda text: (POISON, []))
    runs = [template for template in RUNS
            if corpora(template) <= {"{input}", "{other}"}]
    for name, texts in RESOLVED.items():
        corpus, diagnostics = parse_corpus(texts[0])
        assert diagnostics == []
        assert serialize_corpus(corpus) == (E2E_TEXT if name == "lenient"
                                            else edge)
        paths = inputs(str(tmp_path), *texts)
        for template in runs:
            argv = filled(template, str(tmp_path), **paths)
            code, out, files, err = reference(argv, texts[0])
            if template is BOTH_ON_STDOUT:
                assert (code, out, files) == (2, "", {})
                assert err.endswith("the corpus would also go to stdout\n")
                continue
            assert (code, err) == (0, "") and all(files.values()), argv
            named = [argv[i + 1] for i, arg in enumerate(argv)
                     if arg in ("-o", "--assignments", "--out-prefix")]
            assert bool(files) == any(path != "-" for path in named), argv
            assert bool(out) == ("-" in named or not {
                "-o", "--out-prefix"} & set(argv)), argv


def test_the_reference_is_built_from_public_library_names():
    """``tests/reference.py`` imports nothing of ``corefkit.cli`` and no
    name starting with ``_`` from ``corefkit``, nor reads such a name."""
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(
        "utf-8"))
    imported = [f"{node.module}.{alias.name}" if isinstance(
        node, ast.ImportFrom) else alias.name for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names]
    assert {"corefkit.conll", "corefkit.model.Corpus"} <= set(imported)
    assert [name for name in imported if name.startswith("corefkit.cli")
            or name.startswith("corefkit") and "._" in name] == []
    assert [node.attr for node in ast.walk(tree) if isinstance(
        node, ast.Attribute) and node.attr.startswith("_")] == []


# Writers whose every output file is larger than ``FILE_SIZE_LIMIT`` bytes.
LIMITED_RUNS = [
    ["transform", E2E, "--paradigm", "hen", "-o", "{dir}/t.conll"],
    ["transform", E2E, "--paradigm", "hen", "--jobs", "2",
     "-o", "{dir}/t.conll"],
    ["cda", E2E, "--seed", "7", "-o", "{dir}/c.conll",
     "--assignments", "{dir}/c.tsv"],
]
FILE_SIZE_LIMIT = 32


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("template", LIMITED_RUNS,
                         ids=["transform", "transform-jobs2", "cda"])
def test_write_past_the_file_size_limit_fails_cleanly(template, tmp_path):
    def limit():  # in the child only, between fork and exec
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (FILE_SIZE_LIMIT, FILE_SIZE_LIMIT))

    argv = [a.replace("{dir}", str(tmp_path)) for a in template]
    done = subprocess.run(
        [sys.executable, "-c", "from corefkit.cli import run; run()", *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=limit,
        # No bytecode cache writes, which the limit would fail too.
        env={**child_env(), "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines()
              if line.startswith("corefkit: error: ")]
    assert len(errors) == 1, done.stderr
    assert os.listdir(tmp_path) == []


# --- every I/O call of the write failing in turn ---------------------------

WRITE = cli._write


class Faults:
    """Counts the I/O calls ``cli._write`` makes, by kind, and fails the
    ``k``-th call of kind ``failing``."""

    def __init__(self, failing=None, k=0):
        self.failing, self.k = failing, k
        self.calls = dict.fromkeys(("makedirs", "open", "chmod", "write",
                                    "link", "replace", "stdout"), 0)

    def call(self, kind, fn, *args, **kwargs):
        self.calls[kind] += 1
        if (kind, self.calls[kind]) == (self.failing, self.k):
            raise OSError(errno.EIO, f"no {kind} {self.k}")
        return fn(*args, **kwargs)

    def write(self, files, stdout):
        """``cli._write`` with its calls counted, and one failing."""
        faults = self

        class Handle:
            def __init__(self, *args, **kwargs):
                self.handle = faults.call("open", open, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return self.handle.__exit__(*exc_info)

            def write(self, text):
                return faults.call("write", self.handle.write, text)

        with pytest.MonkeyPatch.context() as patch:
            for kind, owner, name in (("makedirs", os, "makedirs"),
                                      ("chmod", os, "chmod"),
                                      ("link", os, "link"),
                                      ("replace", os, "replace"),
                                      ("stdout", cli, "_write_stdout")):
                patch.setattr(owner, name, functools.partial(
                    self.call, kind, getattr(owner, name)))
            patch.setattr(cli, "open", Handle, raising=False)
            WRITE(files, stdout)


def tree(directory):
    """Each path under ``directory``: its mode, and a file's bytes."""
    return {str(path): (path.lstat().st_mode,
                        path.read_bytes() if path.is_file() else None)
            for path in Path(directory).rglob("*")}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("template", RUNS, ids=lambda argv: argv[0])
def test_a_failing_write_call_leaves_the_tree_as_it_was(
        tmp_path, monkeypatch, template, existing):
    """Each I/O call of the write fails in turn, once for each of its
    calls on e2e.conll (as every input, and on stdin), with every output
    already there or none: the run exits 2 with one error line, prints
    nothing and leaves every name, byte and mode under its directory as
    they were."""
    monkeypatch.setattr(corefkit.lexicon, "_read_lexicon",
                        lambda text: (POISON, []))
    paths = {**inputs(str(tmp_path), "", ""), "input": E2E, "other": E2E}

    def prepared(name):
        directory = tmp_path / name
        directory.mkdir()
        argv = filled(template, str(directory), **paths)
        for path in reference(argv, E2E_TEXT)[2] if existing else ():
            Path(path).write_text(f"old {path}\n", "utf-8")
            os.chmod(path, 0o604)
        return directory, argv

    counted = Faults()
    monkeypatch.setattr(cli, "_write", counted.write)
    directory, argv = prepared("clean")
    expected = reference(argv, E2E_TEXT)
    assert run_in(str(directory), argv, E2E_TEXT) == expected
    assert (expected[0] == 0) == any(counted.calls.values())
    for kind, calls in counted.calls.items():
        for k in range(1, calls + 1):
            monkeypatch.setattr(cli, "_write", Faults(kind, k).write)
            directory, argv = prepared(f"{kind}{k}")
            before = tree(directory)
            assert run(*argv, stdin_text=E2E_TEXT) == (
                2, "", f"corefkit: error: [Errno {errno.EIO}] no {kind} {k}\n")
            assert tree(directory) == before, (kind, k)


def test_a_failed_restore_is_named_and_its_backup_kept(tmp_path, monkeypatch):
    """The second target cannot be replaced, nor the first put back: the
    error line names the first and the backup that holds its old bytes."""
    real, calls = os.replace, []

    def replace(source, target):
        calls.append(target)
        if len(calls) > 1:
            raise OSError(errno.EIO, "no replace")
        real(source, target)

    out = tmp_path / "c.conll"
    out.write_text("old\n", "utf-8")
    backup = tmp_path / f".corefkit.{os.getpid()}.0.old"
    monkeypatch.setattr(os, "replace", replace)
    assert run("cda", E2E, "-o", str(out), "--assignments",
               str(tmp_path / "c.tsv")) == (
        2, "", f"corefkit: error: [Errno {errno.EIO}] no replace; could not "
               f"restore {str(out)!r} from {str(backup)!r}: [Errno {errno.EIO}] "
               "no replace\n")
    assert sorted(os.listdir(tmp_path)) == [backup.name, "c.conll"]
    assert backup.read_text("utf-8") == "old\n"
