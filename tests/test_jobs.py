"""``--jobs N`` is accepted and has no effect: every job count must
report exactly what one serial run reports, and no run forks or builds a
token grid.

The property test checks each corpus-writing command against
``reference``, on hostile corpora, at every job count it takes.
"""
import os
import random
import tempfile
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
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
@pytest.mark.parametrize("jobs", [-3, 0, 1, 2, 3, 7, 64, 10**9])
@pytest.mark.parametrize("tail", [[], ["stray"]])
def test_every_document_is_written_once_in_order_at_every_job_count(
        monkeypatch, documents, jobs, tail):
    forbid_fork(monkeypatch)
    lines = document_lines([1 + i % 4 for i in range(documents)]) + tail
    text = "\n".join(lines) + "\n"
    code, out, err = run("delex", "--jobs", str(jobs), stdin_text=text)
    if jobs < 1:  # a usage error, caught before the input is read
        assert (code, out) == (1, "")
        assert err.endswith("corefkit delex: error: argument --jobs: must be "
                            f"at least 1, not {jobs}\n")
        return
    assert (code, out, {}, err) == reference(["delex"], text)
    assert code == 0
    ids = [line.removeprefix("#begin document ") for line in out.splitlines()
           if line.startswith("#begin document ")]
    assert ids == [f"d{i}" for i in range(documents)]
    assert err == (f"-:{len(lines)}: error: unexpected content outside a "
                   "document: 'stray'\n" if tail else "")


@pytest.mark.parametrize("lines", [[], ["stray"], ["#begin document a", "x"]])
def test_no_end_line_gives_what_one_job_gives(monkeypatch, lines):
    text = "".join(line + "\n" for line in lines)
    expected = run("resolve-baseline", "--jobs", "1", stdin_text=text)
    assert expected[0] == 2
    assert expected[2].endswith("corefkit: error: no parseable document "
                                "in input\n")
    forbid_fork(monkeypatch)
    assert run("resolve-baseline", "--jobs", "4", stdin_text=text) == expected


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_a_failing_mapping_fails_the_run_in_this_process(
        tmp_path, monkeypatch, jobs):
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
    assert run("transform", E2E, "--paradigm", "die", "--jobs", str(jobs),
               "-o", str(output)) == (
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
    results = {jobs: run("delex", E2E, "--jobs", str(jobs))
               for jobs in (1, 2, 3)}
    assert results[1] == (2, "", f"corefkit: error: {expected}\n")
    assert results[2] == results[3] == results[1]
    assert_no_child_left()


def test_a_duplicate_id_is_kept_once_at_every_job_count():
    text = E2E_TEXT.replace("#begin document verhaal3",
                            "#begin document verhaal1")
    begin = text.splitlines().index("#begin document verhaal1", 1) + 1
    results = {jobs: run("resolve-baseline", "--jobs", str(jobs),
                         stdin_text=text) for jobs in (1, 2, 3)}
    code, out, err = results[1]
    assert code == 0
    assert out.count("#begin document") == 2
    assert err == (f"-:{begin}: error: duplicate document id 'verhaal1'; "
                   "keeping the first\n")
    assert results[2] == results[3] == results[1]


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_a_load_error_follows_the_parse_report(tmp_path, jobs):
    missing = str(tmp_path / "missing.cfg")
    text = "stray\n" + E2E_TEXT
    code, out, err = run("delex", "--config", missing, "--jobs", jobs,
                         stdin_text=text)
    assert code == 2 and out == ""
    assert err.startswith("-:1: error: unexpected content outside a "
                          "document: 'stray'\ncorefkit: error: ")
    assert missing in err and err.count("\n") == 2
    # An empty corpus comes first, as when the corpus was read first.
    assert run("delex", "--config", missing, "--jobs", jobs,
               stdin_text="stray\n") == (
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


def test_output_file_is_the_same_at_every_job_count(tmp_path):
    texts = set()
    for jobs in (1, 2, 3, 5):
        output = tmp_path / f"out{jobs}.conll"
        assert run("transform", E2E, "--paradigm", "die", "--anonymize",
                   "--neutralize-nouns", "--jobs", str(jobs),
                   "-o", str(output)) == (0, "", "")
        texts.add(output.read_bytes())
    assert len(texts) == 1
    assert sorted(os.listdir(tmp_path)) == [f"out{j}.conll" for j in (1, 2, 3, 5)]
    assert_no_child_left()


# --- every job count against the serial run, on hostile corpora ------------

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
    if kind == "fixture":
        document = replace(draw(st.sampled_from(FIXTURE_DOCUMENTS)), id=doc_id)
    elif kind == "random":
        document = corpusgen.random_document(rng, doc_id)
    else:
        document = corpusgen.story_document(
            rng, BOOM if kind == "boom" else doc_id, rng.randint(1, 8))
    lines = lines_of(document)
    if kind == "malformed":
        at = rng.randrange(1, len(lines) - 1)
        lines[at] = lines[at].rsplit("\t", 1)[0] if lines[at] else "1\tx"
    if kind == "unterminated":
        lines.pop()
    return lines


@st.composite
def corpus_texts(draw):
    lines = [line for block in draw(st.lists(blocks(), max_size=8))
             for line in block]
    if lines and lines[-1] == END_LINE and draw(st.booleans()):
        lines.pop()  # the final "#end document" is missing
    newline = draw(st.sampled_from(["\n", "\r\n", "\x1c"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


# Each command as the property test runs it; "{dir}" is a fresh directory.
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
JOBS_COMMANDS = ("transform", "delex", "resolve-baseline")


def filled(template, directory):
    """``template`` with "{dir}" naming ``directory``."""
    return [arg.replace("{dir}", directory) for arg in template]


@settings(max_examples=120, deadline=None)
@given(text=corpus_texts())
@example(text=LENIENT_AND_EDGE["lenient"])
@example(text=LENIENT_AND_EDGE["edge"])
def test_every_job_count_reports_what_the_serial_run_reports(text):
    """Each writer, at each job count it takes, on a drawn corpus."""
    import corefkit.builder
    import corefkit.conll
    import corefkit.lexicon
    import corefkit.resolver
    import corefkit.transform

    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as directory:
        # The kernels of the command and the library calls of the reference.
        for module, name in ((corefkit.transform, "_rewrite_rows"),
                             (corefkit.resolver, "_resolve_rows"),
                             (corefkit.conll, "_strip_rows"),
                             (corefkit.builder, "_rewrite"),
                             (corefkit.transform, "pronoun_specific"),
                             (corefkit.transform, "delexicalize"),
                             (corefkit.resolver, "resolve"),
                             (corefkit.conll, "strip_singletons")):
            patch.setattr(module, name, booming(getattr(module, name)))
        patch.setattr(corefkit.lexicon, "_read_lexicon",
                      lambda text: (POISON, []))
        for command, template in COMMANDS.items():
            argv = filled(template, directory)
            expected = reference(argv, text)
            for jobs in ([["--jobs", str(n)] for n in (1, 2, 3)]
                         if command in JOBS_COMMANDS else [[]]):
                assert run_in(directory, argv + jobs, text) == expected, (
                    command, jobs)
    assert_no_child_left()
