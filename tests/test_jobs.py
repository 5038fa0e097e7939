"""``--jobs N`` is accepted and has no effect: a run with it gives the
bytes of the same run without it. No run forks or builds a token grid,
and each writer reports its errors in the serial order, in this process.

Here too are the hostile corpora that the property tests draw
(``corpus_texts``) and the writers' command lines (``COMMANDS``).
"""
import os
import random

import pytest
from hypothesis import strategies as st

import corpusgen
from conftest import (FIXTURE_DOCUMENTS, FIXTURES, assert_no_child_left,
                      lines_of, run, run_in)
from corefkit.conll import END_LINE
from corefkit.errors import CorefKitError
from corefkit.lexicon import RewriteEntry, RewriteLexicon
from corefkit.model import Token
from reference import reference

E2E = str(FIXTURES / "e2e.conll")
E2E_TEXT = (FIXTURES / "e2e.conll").read_text("utf-8")
LENIENT_AND_EDGE = corpusgen.lenient_and_edge_texts(E2E_TEXT)


def document_lines(sizes):
    """One document per size, each with that many token lines."""
    lines = []
    for i, size in enumerate(sizes):
        lines.append(f"#begin document d{i}")
        lines += [f"{t + 1}\tw\tw\tX\t_\t0\troot\tO\t-" for t in range(size)]
        lines.append(END_LINE)
    return lines


def forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)


# --- the job count through the CLI -----------------------------------------

@pytest.mark.parametrize("documents", [1, 2, 5, 40, 200])
@pytest.mark.parametrize("tail", [[], ["stray"]])
def test_every_document_is_written_once_in_order(monkeypatch, documents,
                                                 tail):
    forbid_fork(monkeypatch)
    lines = document_lines([1 + i % 4 for i in range(documents)]) + tail
    text = "\n".join(lines) + "\n"
    code, out, err = run("delex", stdin_text=text)
    assert (code, out, {}, err) == reference(["delex"], text)
    assert code == 0
    ids = [line.removeprefix("#begin document ") for line in out.splitlines()
           if line.startswith("#begin document ")]
    assert ids == [f"d{i}" for i in range(documents)]
    assert err == (f"-:{len(lines)}: error: unexpected content outside a "
                   "document: 'stray'\n" if tail else "")


# Each command that takes --jobs, and its inputs: e2e.conll, and on stdin
# three texts with no end line, which hold no parseable document.
JOBS_COMMANDS = {"transform": ["transform", "--paradigm", "die", "--anonymize",
                               "--neutralize-nouns"],
                 "delex": ["delex"], "resolve-baseline": ["resolve-baseline"]}
NO_END_LINE = ["", "stray\n", "#begin document a\nx\n"]


@pytest.mark.parametrize("source, text",
                         [(E2E, ""), *(("-", text) for text in NO_END_LINE)],
                         ids=["e2e", *(repr(text) for text in NO_END_LINE)])
@pytest.mark.parametrize("command", sorted(JOBS_COMMANDS))
def test_jobs_changes_no_byte(tmp_path, monkeypatch, command, source, text):
    """With ``--jobs N``, a run gives the exit code, stdout, stderr and
    files of the same run without it, to stdout and to ``-o``."""
    forbid_fork(monkeypatch)
    for output in ([], ["-o", str(tmp_path / "out.conll")]):
        argv = [*JOBS_COMMANDS[command], source, *output]
        expected = run_in(str(tmp_path), argv, text)
        assert expected[0] == (0 if source == E2E else 2), argv
        if source == "-":
            assert expected[3].endswith("corefkit: error: no parseable "
                                        "document in input\n")
        for jobs in (2, 64, 10**9):
            assert run_in(str(tmp_path), [*argv, "--jobs", str(jobs)],
                          text) == expected, (argv, jobs)
    assert_no_child_left()


def test_a_failing_mapping_fails_the_run_in_this_process(tmp_path,
                                                         monkeypatch):
    import corefkit.transform

    parent = os.getpid()
    original = corefkit.transform._rewrite_rows
    mapped = []

    def failing(document, *args):
        assert os.getpid() == parent
        mapped.append(document.id)
        if document.id == "verhaal2":
            raise CorefKitError("cannot rewrite verhaal2")
        return original(document, *args)

    monkeypatch.setattr(corefkit.transform, "_rewrite_rows", failing)
    forbid_fork(monkeypatch)
    output = tmp_path / "out.conll"
    assert run("transform", E2E, "--paradigm", "die", "-o", str(output)) == (
        2, "", "corefkit: error: cannot rewrite verhaal2\n")
    assert os.listdir(tmp_path) == []  # no output, no .tmp file
    assert mapped == ["verhaal1", "verhaal2"]  # the error stops the mapping
    assert_no_child_left()


def tab_in_forms(form, lemma, pos, feats, ner, names):
    """A ``transform._rewriter`` rule that puts a tab in every form: a
    validation error, first at sentence 0 token 0."""
    return "a\tb", lemma


@pytest.mark.parametrize("plan, expected", [
    # e2e document id -> what the mapping does to it
    ({"verhaal1": "invalid", "verhaal2": "raise"}, "cannot map verhaal2"),
    ({"verhaal2": "raise", "verhaal3": "raise"}, "cannot map verhaal2"),
    ({"verhaal2": "invalid", "verhaal3": "invalid"},
     "corpus failed validation: document 'verhaal2': sentence 0 token 0: "
     "form contains a tab or newline"),
    ({"verhaal3": "raise", "verhaal1": "invalid"}, "cannot map verhaal3"),
])
def test_errors_take_the_serial_precedence(monkeypatch, plan, expected):
    import corefkit.transform

    original = corefkit.transform._rewrite_rows

    def mapping(document, rule):
        action = plan.get(document.id)
        if action == "raise":
            raise CorefKitError(f"cannot map {document.id}")
        return original(document, tab_in_forms if action == "invalid"
                        else rule)

    monkeypatch.setattr(corefkit.transform, "_rewrite_rows", mapping)
    assert run("delex", E2E) == (2, "", f"corefkit: error: {expected}\n")
    assert_no_child_left()


def test_a_duplicate_id_is_kept_once():
    text = E2E_TEXT.replace("#begin document verhaal3",
                            "#begin document verhaal1")
    begin = text.splitlines().index("#begin document verhaal1", 1) + 1
    code, out, err = run("resolve-baseline", stdin_text=text)
    assert code == 0
    assert out.count("#begin document") == 2
    assert err == (f"-:{begin}: error: duplicate document id 'verhaal1'; "
                   "keeping the first\n")


def test_a_load_error_follows_the_parse_report(tmp_path):
    missing = str(tmp_path / "missing.cfg")
    text = "stray\n" + E2E_TEXT
    code, out, err = run("delex", "--config", missing, stdin_text=text)
    assert code == 2 and out == ""
    assert err.startswith("-:1: error: unexpected content outside a "
                          "document: 'stray'\ncorefkit: error: ")
    assert missing in err and err.count("\n") == 2
    # An empty corpus comes first, as when the corpus was read first.
    assert run("delex", "--config", missing, stdin_text="stray\n") == (
        2, "", "-:1: error: unexpected content outside a document: "
               "'stray'\ncorefkit: error: no parseable document in input\n")


# One run of each subcommand on e2e.conll.
ONE_RUN_EACH = [
    ["stats", E2E],
    ["strip-singletons", E2E],
    ["transform", E2E, "--paradigm", "die", "--anonymize", "--neutralize-nouns",
     "--jobs", "3"],
    ["delex", E2E, "--jobs", "3"],
    ["cda", E2E, "--seed", "4"],
    ["sample", E2E, "--count", "2", "--partitions", "3"],
    ["unseen", E2E, "--seed", "2"],
    ["resolve-baseline", E2E, "--jobs", "3"],
    ["score", "--gold", E2E, "--pred", E2E],
]


@pytest.mark.parametrize("argv", ONE_RUN_EACH, ids=lambda argv: argv[0])
def test_no_command_forks(monkeypatch, argv):
    expected = run(*argv)
    assert expected[0] == 0
    forbid_fork(monkeypatch)
    assert run(*argv) == expected


@pytest.mark.parametrize("argv", ONE_RUN_EACH, ids=lambda argv: argv[0])
def test_no_command_builds_a_token_grid(monkeypatch, argv):
    """Every command reads rows: no token is built, not even to classify
    a ``(pos, feats)`` pair."""
    expected = run(*argv)
    built = []
    init = Token.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Token, "__init__", counting)
    assert run(*argv) == expected
    assert expected[0] == 0 and expected[1]
    assert built == []


# --- hostile corpora ------------------------------------------------------

# A mapping raises on this id, and a lexicon turns this noun into a form
# holding a line break, which fails validation. No lexicon file can hold
# one, so the test replaces the loaded lexicon.
BOOM = "boom"
POISON = RewriteLexicon({"zeeman": RewriteEntry("zee\nvaarder", False)})


def booming(fn):
    def mapping(document, *args):
        if document.id == BOOM:
            raise CorefKitError(f"cannot map {BOOM}")
        return fn(document, *args)
    return mapping


@st.composite
def blocks(draw):
    """The lines of one document, or of something between documents."""
    kind = draw(st.sampled_from(["story", "random", "fixture", "malformed",
                                 "stray", "unterminated", "poison", "boom"]))
    doc_id = draw(st.sampled_from("abcde"))
    rng = random.Random(draw(st.integers(0, 2**16)))
    if kind == "stray":
        return [draw(st.sampled_from(["stray words", END_LINE, "", "  ",
                                      "#comment"]))]
    if kind == "poison":
        doc_id = draw(st.sampled_from([doc_id, BOOM]))
        return lines_of(corpusgen.build_doc(doc_id, [[
            corpusgen.tok("De"), corpusgen.tok("zeeman", pos="NOUN")]]))
    document = corpusgen.source_document(
        draw, kind, BOOM if kind == "boom" else doc_id, rng,
        st.sampled_from(FIXTURE_DOCUMENTS), 8)
    return corpusgen.damaged(lines_of(document), kind, rng)


@st.composite
def corpus_texts(draw):
    lines = [line for block in draw(st.lists(blocks(), max_size=8))
             for line in block]
    if lines and lines[-1] == END_LINE and draw(st.booleans()):
        lines.pop()  # the final "#end document" is missing
    newline = draw(st.sampled_from(["\n", "\r\n", "\x1c"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


# Each writer as the writer property test runs it on stdin; "{dir}" is a
# fresh directory.
COMMANDS = {
    "transform": ["transform", "--paradigm", "die", "--anonymize",
                  "--neutralize-nouns", "--lexicon", E2E],
    "delex": ["delex"],
    "resolve-baseline": ["resolve-baseline"],
    "strip-singletons": ["strip-singletons"],
    "cda": ["cda", "--seed", "3", "--lexicon", E2E, "-o", "{dir}/out.conll",
            "--assignments", "-"],
    "unseen": ["unseen", "--seed", "5", "--no-anonymize", "--lexicon", E2E],
    "unseen --fixed": ["unseen", "--fixed", "zem", "-o", "{dir}/out.conll"],
}


def filled(template, directory, **paths):
    """``template`` with "{dir}" naming ``directory`` and each "{name}"
    of ``paths`` naming its path."""
    values = {"dir": directory, **paths}
    args = []
    for arg in template:
        for name, value in values.items():
            arg = arg.replace("{" + name + "}", value)
        args.append(arg)
    return args
