"""The check each corpus writer runs before it writes, and the shape of
its write path.

The writers (``cli._mapped_output``) check only what their mapping
changed: a rewritten form or lemma, or a resolver's new clusters. That
is sound only because the parser returns nothing ``validate_corpus``
rejects; this premise is tested here. So is what follows from it: each
writer reports and writes what ``serialize_corpus`` of the library
mapping does, on hostile and lenient input and on hostile rewritten
values, and holds one document at a time.
"""
import random
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpusgen
import test_jobs
from conftest import (FIXTURE_DOCUMENTS, FIXTURES, assert_no_child_left,
                      lines_of, run, run_in)
from corefkit import cli, conll
from corefkit.conll import (END_LINE, _strip_rows, parse_corpus,
                            serialize_corpus, strip_singletons)
from corefkit.errors import EmptyCorpusError, ValidationError
from corefkit.lexicon import RewriteEntry, RewriteLexicon
from corefkit.model import (_LINE_BREAKS, Cluster, Corpus, Document,
                            MentionSpan, validate_corpus)
from corefkit.resolver import resolve
from corefkit.transform import _rewrite, _rewrite_rows
from reference import reference
from test_jobs import (COMMANDS, E2E, E2E_TEXT, LENIENT_AND_EDGE, ONE_RUN_EACH,
                       POISON, booming, filled)


def errors(issues):
    return [issue.message for issue in issues if issue.severity == "error"]


# --- premise: a parsed corpus has no validation error ----------------------

indices = st.sampled_from(["{n}", "{n}", "{n}", "0", "x", "", "١", "0{n}"])
forms = st.sampled_from(["Hij", "zag", "haar", "_", "", "\x00", "a b", "é",
                         "zeeman"])
feats = st.sampled_from(["_", "", "Case=Nom|Person=3", "_|_", "\x00", "|",
                         "Case=Nom|Number=Sing|Person=3|PronType=Prs"])
heads = st.sampled_from(["0", "1", "2", "9", "x", "", "-1", "١", "00"])
corefs = st.sampled_from(["-", "-", "(1)", "(1", "1)", "(1|(1", "((", ")",
                          "", "\x00", "(2)|(2)", "(0|0)", "(1)|1)", "|",
                          "(2)|(1)", "1)|(0)|(1", "0)"])
free = st.sampled_from(["w", "_", "", "\x00", "PROPN", "PER", "O", "PRON",
                        "NOUN"])


@st.composite
def token_lines(draw, n):
    if draw(st.integers(0, 9)) == 0:  # a line of the wrong width
        return "\t".join(draw(st.lists(free, max_size=10)))
    columns = [draw(indices).format(n=n), draw(forms), draw(free), draw(free),
               draw(feats), draw(heads), draw(free), draw(free), draw(corefs)]
    return "\t".join(columns)


# The Arabic-Indic digits, which ``str.isdecimal`` and ``int`` accept.
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def lenient_documents(draw):
    """The lines of a valid document, leniently spelled: each index and
    head as written, as ``0{n}`` or in Arabic-Indic digits (so a root is
    ``00`` or ``\u0660``), some feats ``_`` left empty, and the entries of
    each coref field in any order."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    doc_id = draw(st.sampled_from("abc"))
    kind = draw(st.sampled_from(["story", "random", "fixture"]))
    lines = lines_of(corpusgen.source_document(
        draw, kind, doc_id, rng, st.sampled_from(FIXTURE_DOCUMENTS), 6))
    for i, line in enumerate(lines):
        columns = line.split("\t")
        if len(columns) != 9:
            continue
        for c in (0, 5):
            columns[c] = rng.choice((columns[c], "0" + columns[c],
                                     columns[c].translate(ARABIC_INDIC)))
        if columns[4] == "_" and rng.random() < 0.5:
            columns[4] = ""
        entries = columns[8].split("|")
        rng.shuffle(entries)
        columns[8] = "|".join(entries)
        lines[i] = "\t".join(columns)
    return lines


@st.composite
def corpus_texts(draw):
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            lines += draw(lenient_documents())
            continue
        lines.append("#begin document " + draw(st.sampled_from("abc")))
        for si in range(draw(st.integers(1, 3))):
            if si:
                lines.append("")
            for n in range(1, draw(st.integers(1, 4)) + 1):
                lines.append(draw(token_lines(n)))
        if draw(st.integers(0, 4)):
            lines.append("#end document")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(corpus_texts())
def test_a_parsed_corpus_has_no_validation_error(text):
    try:
        corpus, _ = parse_corpus(text)
    except EmptyCorpusError:
        return
    assert errors(validate_corpus(corpus)) == []


# --- the writers report what serialize_corpus reports ---------------------

def parsed_corpora():
    corpora = [parse_corpus(path.read_text("utf-8"))[0]
               for path in sorted(FIXTURES.glob("*.conll"))]
    rng = random.Random(8)
    for _ in range(4):
        corpora.append(corpusgen.random_corpus(rng, 3))
        corpora.append(Corpus(tuple(corpusgen.story_document(rng, f"s{i}", 8)
                                    for i in range(3))))
    return [parse_corpus(serialize_corpus(corpus))[0] for corpus in corpora]


CORPORA = parsed_corpora()


def empty_forms(form, lemma, pos, feats, ner, names):
    """A ``transform._rewriter`` rule that empties every form."""
    return "", lemma


def test_cli_reports_what_serialize_corpus_would(tmp_path):
    parsed = CORPORA[0]
    with pytest.raises(ValidationError) as full:
        serialize_corpus(Corpus(tuple(
            _rewrite(document, empty_forms) for document in parsed.documents)))
    path = tmp_path / "in.conll"
    path.write_text(serialize_corpus(parsed), "utf-8")
    args = SimpleNamespace(input=str(path), output=None)
    with pytest.raises(ValidationError) as checked:
        cli._mapped_output(args, lambda lines: (
            lambda document: _rewrite_rows(document, empty_forms), ""))
    assert str(checked.value) == str(full.value)
    result = cli._mapped_output(args, lambda lines: (_strip_rows, ""))
    assert result.stdout == serialize_corpus(
        Corpus(tuple(map(strip_singletons, parsed.documents))))


# --- hostile rewritten values ------------------------------------------------

# Replacements for "zeeman" that no form or lemma may hold.
HOSTILE = {"empty": "", "tab": "zee\tvaarder", "surrogate": "zee\udcffvaarder",
           **{f"break-{ord(c):x}": f"zee{c}vaarder" for c in _LINE_BREAKS}}
# Each writer that takes --lexicon.
LEXICON_WRITERS = {"transform": ["transform", "--paradigm", "die",
                                 "--neutralize-nouns"],
                   "cda": ["cda", "--seed", "3"],
                   "unseen": ["unseen", "--seed", "5"]}


@pytest.mark.parametrize("at", [0, 2], ids=["first", "later"])
@pytest.mark.parametrize("value", sorted(HOSTILE))
@pytest.mark.parametrize("command", sorted(LEXICON_WRITERS))
def test_a_hostile_rewrite_fails_as_serialize_corpus_fails(
        monkeypatch, command, value, at):
    import corefkit.lexicon

    lexicon = RewriteLexicon({"zeeman": RewriteEntry(HOSTILE[value], False)})
    monkeypatch.setattr(corefkit.lexicon, "_read_lexicon",
                        lambda text: (lexicon, []))
    text = "".join(serialize_corpus(Corpus((corpusgen.build_doc(f"d{i}", [[
        corpusgen.tok("De"), corpusgen.tok("zeeman" if i == at else "huis",
                                           pos="NOUN")]]),)))
        for i in range(3))
    argv = [*LEXICON_WRITERS[command], "--lexicon", E2E]
    code, out, files, err = reference(argv, text)
    assert err.startswith("corefkit: error: corpus failed validation: "
                          f"document 'd{at}'")
    assert run(*argv, stdin_text=text) == (code, out, err)


# --- the shape of the write path ---------------------------------------------

WRITERS = {argv[0]: argv for argv in ONE_RUN_EACH
           if argv[0] not in ("stats", "sample", "score")}


def test_resolve_baseline_builds_no_span_objects(monkeypatch):
    """The resolver's clusters stay ``(sentence, start, end)`` keys from
    the sieves through the check to the written text: no
    :class:`MentionSpan`, :class:`Cluster` or :class:`Document` is
    built."""
    expected = run(*WRITERS["resolve-baseline"])
    built = []
    for cls in (MentionSpan, Cluster, Document):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    # The library resolver builds all three, so the counting sees them.
    resolve(parse_corpus(E2E_TEXT)[0].documents[0])
    assert {"MentionSpan", "Cluster", "Document"} <= set(built)
    built.clear()
    assert run(*WRITERS["resolve-baseline"]) == expected
    assert expected[0] == 0 and "(1)" in expected[1]
    assert built == []


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_a_writer_holds_one_document_at_a_time(monkeypatch, command):
    """When a document's text is produced, the reader has read no line
    past that document's end."""
    ends = [n for n, line in enumerate(E2E_TEXT.splitlines(), 1)
            if line == END_LINE]
    read = []  # lines read by each pass over the input, the last one running

    class Lines(list):
        def __iter__(self):
            read.append(0)
            for line in list.__iter__(self):
                read[-1] += 1
                yield line

    class Text(str):
        def splitlines(self, *args, **kwargs):
            return Lines(str.splitlines(self, *args, **kwargs))

    expected = run(*WRITERS[command])
    produced = []
    document_text = conll._document_text

    def recording(*document):
        produced.append(read[-1])
        return document_text(*document)

    monkeypatch.setattr(cli, "_read_text", lambda path: Text(E2E_TEXT))
    monkeypatch.setattr(conll, "_document_text", recording)
    assert run(*WRITERS[command]) == expected
    assert expected[0] == 0
    assert produced == ends


# --- every writer against the reference, on hostile and lenient corpora ----

@settings(max_examples=150, deadline=None)
@given(hostile=test_jobs.corpus_texts(), lenient=corpus_texts())
@example(hostile=LENIENT_AND_EDGE["lenient"], lenient=LENIENT_AND_EDGE["edge"])
def test_every_writer_reports_what_the_reference_reports(hostile, lenient):
    """Each writer of ``COMMANDS`` on a hostile corpus, whose documents may
    be broken, duplicated or unterminated, fail the mapping (``booming``)
    or fail validation (``POISON``), and on a lenient one: indices and
    heads spelled ``0{n}``, ``\u0661`` or ``00``, empty feats and coref
    entries in any order. It reports and writes what ``reference`` does."""
    import corefkit.builder
    import corefkit.lexicon
    import corefkit.resolver
    import corefkit.transform

    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as directory:
        # The kernels of the command and the library calls of the reference.
        for module, name in ((corefkit.transform, "_rewrite_rows"),
                             (corefkit.resolver, "_resolve_rows"),
                             (conll, "_strip_rows"),
                             (corefkit.builder, "_rewrite"),
                             (corefkit.transform, "pronoun_specific"),
                             (corefkit.transform, "delexicalize"),
                             (corefkit.resolver, "resolve"),
                             (conll, "strip_singletons")):
            patch.setattr(module, name, booming(getattr(module, name)))
        patch.setattr(corefkit.lexicon, "_read_lexicon",
                      lambda text: (POISON, []))
        for text in (hostile, lenient):
            for command, template in COMMANDS.items():
                argv = filled(template, directory)
                assert run_in(directory, argv, text) == reference(argv, text), \
                    command
    assert_no_child_left()
