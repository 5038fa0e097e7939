"""The command line contract, for every subcommand, on hostile corpora.

Each run must exit 0 or 2 without a traceback, a corpus it writes must
parse back with no diagnostic, a second run must give the same bytes,
and a failing run must leave no output and no temp file behind.
"""
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings

import corefkit.lexicon
from conftest import FIXTURES, assert_no_child_left, child_env
from corefkit import cli
from corefkit.conll import parse_corpus
from test_jobs import POISON, corpus_texts, run_in

try:
    import resource
except ImportError:  # not on every platform
    resource = None

E2E = str(FIXTURES / "e2e.conll")

# Every subcommand, writing to stdout, -o, --assignments or --out-prefix.
# "{input}" names the corpus file and "{dir}" an empty output directory.
RUNS = [
    ["stats", "{input}"],
    ["stats", "{input}", "--forms", "hij", "Die", "hij", "--summary-only"],
    ["stats", "{input}", "--forms", "hij", "Die", "hij"],
    ["strip-singletons", "{input}", "-o", "{dir}/s.conll"],
    ["transform", "{input}", "--paradigm", "zem", "--anonymize",
     "--neutralize-nouns", "--lexicon", E2E, "--jobs", "2",
     "-o", "{dir}/t.conll"],
    ["transform", "{input}"],
    ["delex", "{input}", "--jobs", "3"],
    ["cda", "{input}", "--seed", "7", "-o", "{dir}/c.conll",
     "--assignments", "{dir}/c.tsv"],
    ["cda", "{input}", "--lexicon", E2E],
    ["sample", "{input}", "--fraction", "1/2", "--partitions", "2",
     "--out-prefix", "{dir}/part"],
    ["sample", "{input}", "--count", "2", "--partitions", "3"],
    ["unseen", "{input}", "-o", "{dir}/u.conll"],
    ["unseen", "{input}", "--fixed", "hen", "--assignments", "-"],
    ["resolve-baseline", "{input}", "--jobs", "2", "-o", "{dir}/r.conll"],
    ["score", "--gold", "{input}", "--pred", "{input}",
     "-o", "{dir}/score.txt"],
    ["score", "--gold", E2E, "--pred", "{input}"],
]
CORPUS_WRITERS = {"strip-singletons", "transform", "delex", "cda", "unseen",
                  "resolve-baseline"}


def test_every_subcommand_is_run():
    assert {argv[0] for argv in RUNS} == set(
        cli.build_parser()._subparsers._group_actions[0].choices)


@settings(max_examples=100, deadline=None)
@given(text=corpus_texts())
def test_every_subcommand_keeps_the_contract(text):
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as directory:
        # A lexicon that fails validation, so that corpus writers fail too.
        patch.setattr(corefkit.lexicon, "_read_lexicon",
                      lambda text: (POISON, []))
        source = os.path.join(directory, "in.conll")
        with open(source, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        out = os.path.join(directory, "out")
        os.mkdir(out)
        for template in RUNS:
            argv = [a.replace("{input}", source) for a in template]
            first = run_in(out, argv, None)
            assert run_in(out, argv, None) == first, argv
            code, stdout, files, stderr = first
            assert code in (0, 2), argv
            assert "Traceback" not in stderr, argv
            assert "without a result" not in stderr, argv
            if code == 2:
                assert stdout == "" and files == {}, argv
                assert stderr.splitlines()[-1].startswith("corefkit: error: ")
            elif argv[0] in CORPUS_WRITERS:
                written = (files[os.path.basename(argv[argv.index("-o") + 1])]
                           if "-o" in argv else stdout)
                assert parse_corpus(written)[1] == [], argv
    assert_no_child_left()


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
