import random
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkit.conll import parse_corpus, serialize_corpus, strip_singletons
from corefkit.errors import EmptyCorpusError, ValidationError
from corefkit.model import Cluster, Corpus, Document, MentionSpan

import corpusgen
from conftest import FIXTURES


def parse_one(text):
    corpus, diagnostics = parse_corpus(text)
    return corpus, diagnostics


MINIMAL = textwrap.dedent("""\
    #begin document mini
    1\tAnna\tanna\tPROPN\t_\t2\tnsubj\tPER\t(0)
    2\tslaapt\tslapen\tVERB\tTense=Pres\t0\troot\tO\t-
    #end document
    """)


def test_parse_minimal_document():
    corpus, diagnostics = parse_one(MINIMAL)
    assert diagnostics == []
    doc = corpus.documents[0]
    assert doc.id == "mini"
    anna, slaapt = doc.sentences[0]
    assert anna.feats == ""          # literal _ becomes empty
    assert anna.dep_head == 1        # 1-based 2 becomes 0-based 1
    assert anna.ner == "PER"
    assert slaapt.dep_head is None   # head 0 is the root
    assert slaapt.feats == "Tense=Pres"
    assert doc.clusters == (Cluster(0, (MentionSpan(0, 0, 0),)),)


def test_serialize_is_parse_inverse_on_minimal():
    corpus, _ = parse_one(MINIMAL)
    assert serialize_corpus(corpus) == MINIMAL


@pytest.mark.parametrize("name", [
    "dialogue_gold.conll", "dialogue_pred.conll", "herstel.conll", "herstel_hij.conll",
    "herstel_zij.conll", "herstel_hen.conll", "herstel_die.conll", "e2e.conll",
])
def test_fixture_files_round_trip_byte_for_byte(name):
    text = (FIXTURES / name).read_text("utf-8")
    corpus, diagnostics = parse_one(text)
    assert diagnostics == []
    assert serialize_corpus(corpus) == text


def test_parse_canonicalises_lenient_input():
    messy = ("\n\n#begin document m\n"
             "1\ta\ta\tX\t_\t0\tdep\tO\t-\n"
             "\n\n"                      # doubled sentence separator
             "1\tb\tb\tX\t_\t0\tdep\tO\t-\n"
             "\n"                        # blank line before end marker
             "#end document\n\n")
    corpus, diagnostics = parse_one(messy)
    assert diagnostics == []
    assert len(corpus.documents[0].sentences) == 2
    canonical = serialize_corpus(corpus)
    assert canonical != messy
    reparsed, _ = parse_one(canonical)
    assert serialize_corpus(reparsed) == canonical


def test_multi_entry_coref_column():
    text = ("#begin document m\n"
            "1\ta\ta\tX\t_\t0\tdep\tO\t(0|(1)\n"
            "2\tb\tb\tX\t_\t0\tdep\tO\t0)\n"
            "#end document\n")
    corpus, diagnostics = parse_one(text)
    assert diagnostics == []
    assert corpus.documents[0].clusters == (
        Cluster(0, (MentionSpan(0, 0, 1),)),
        Cluster(1, (MentionSpan(0, 0, 0),)))
    assert serialize_corpus(corpus) == text


def test_nested_same_cluster_spans_round_trip():
    doc = corpusgen.build_doc(
        "nest", [[corpusgen.tok(c) for c in "abcd"]],
        clusters=[[(0, 0, 2), (0, 0, 3)]])
    text = serialize_corpus(Corpus((doc,)))
    # longest span opens first so LIFO matching restores both
    assert "(0|(0" in text
    reparsed, diagnostics = parse_one(text)
    assert diagnostics == []
    assert reparsed.documents[0] == doc


def test_crossing_spans_round_trip():
    doc = corpusgen.build_doc(
        "cross", [[corpusgen.tok(c) for c in "abcd"]],
        clusters=[[(0, 0, 2)], [(0, 1, 3)]])
    text = serialize_corpus(Corpus((doc,)))
    reparsed, diagnostics = parse_one(text)
    assert diagnostics == []
    assert reparsed.documents[0] == doc


def test_unclosed_bracket_names_the_opening_line():
    text = ("#begin document broken\n"
            "1\ta\ta\tX\t_\t0\tdep\tO\t(3\n"
            "2\tb\tb\tX\t_\t0\tdep\tO\t-\n"
            "#end document\n"
            "#begin document fine\n"
            "1\tc\tc\tX\t_\t0\tdep\tO\t-\n"
            "#end document\n")
    corpus, diagnostics = parse_one(text)
    assert corpus.document_ids() == ("fine",)
    assert any(d.line_number == 2 and "'(3' is never closed" in d.message
               for d in diagnostics)


def test_close_without_open():
    text = ("#begin document broken\n"
            "1\ta\ta\tX\t_\t0\tdep\tO\t5)\n"
            "#end document\n"
            "#begin document fine\n"
            "1\tc\tc\tX\t_\t0\tdep\tO\t-\n"
            "#end document\n")
    corpus, diagnostics = parse_one(text)
    assert corpus.document_ids() == ("fine",)
    assert any("not open" in d.message for d in diagnostics)


@pytest.mark.parametrize("line,fragment", [
    ("1\ta\ta\tX\t_\t0\tdep\tO", "9 tab-separated columns"),
    ("7\ta\ta\tX\t_\t0\tdep\tO\t-", "token index '7', expected 1"),
    ("1\t\ta\tX\t_\t0\tdep\tO\t-", "empty form"),
    ("1\ta\ta\tX\t_\tx\tdep\tO\t-", "not a number"),
    ("1\ta\ta\tX\t_\t9\tdep\tO\t-", "beyond sentence"),
    ("1\ta\ta\tX\t_\t0\tdep\tO\t(x)", "malformed coreference entry"),
    ("1\u00b2\ta\ta\tX\t_\t0\tdep\tO\t-", "token index '1\u00b2'"),
    ("1\ta\ta\tX\t_\t0\u00b2\tdep\tO\t-", "not a number"),
    # numerals longer than int() converts (4300 digits by default)
    pytest.param("1" * 5000 + "\ta\ta\tX\t_\t0\tdep\tO\t-", "expected 1",
                 id="overlong-token-index"),
    pytest.param("1\ta\ta\tX\t_\t" + "1" * 5000 + "\tdep\tO\t-", "not a number",
                 id="overlong-head"),
    pytest.param("1\ta\ta\tX\t_\t0\tdep\tO\t(" + "7" * 5000 + ")",
                 "malformed coreference entry", id="overlong-single-cluster-id"),
    pytest.param("1\ta\ta\tX\t_\t0\tdep\tO\t(" + "7" * 5000,
                 "malformed coreference entry", id="overlong-open-cluster-id"),
    pytest.param("1\ta\ta\tX\t_\t0\tdep\tO\t(3|" + "3" * 5000 + ")",
                 "malformed coreference entry", id="overlong-close-cluster-id"),
])
def test_bad_token_lines_drop_only_their_document(line, fragment):
    text = (f"#begin document broken\n{line}\n#end document\n"
            "#begin document fine\n1\tc\tc\tX\t_\t0\tdep\tO\t-\n#end document\n")
    corpus, diagnostics = parse_one(text)
    assert corpus.document_ids() == ("fine",)
    assert any(fragment in d.message for d in diagnostics)
    with pytest.raises(EmptyCorpusError) as excinfo:
        parse_corpus(f"#begin document broken\n{line}\n#end document\n")
    assert any(fragment in d.message for d in excinfo.value.diagnostics)


def test_duplicate_document_id_keeps_the_first():
    text = ("#begin document twin\n1\ta\ta\tX\t_\t0\tdep\tO\t-\n#end document\n"
            "#begin document twin\n1\tb\tb\tX\t_\t0\tdep\tO\t-\n#end document\n")
    corpus, diagnostics = parse_one(text)
    assert len(corpus.documents) == 1
    assert corpus.documents[0].sentences[0][0].form == "a"
    assert any("duplicate document id" in d.message for d in diagnostics)


def test_begin_inside_document_recovers():
    text = ("#begin document one\n1\ta\ta\tX\t_\t0\tdep\tO\t-\n"
            "#begin document two\n1\tb\tb\tX\t_\t0\tdep\tO\t-\n#end document\n")
    corpus, diagnostics = parse_one(text)
    assert corpus.document_ids() == ("two",)
    assert any("before '#end document'" in d.message for d in diagnostics)


def test_eof_before_end_marker():
    text = "#begin document cut\n1\ta\ta\tX\t_\t0\tdep\tO\t-\n"
    with pytest.raises(EmptyCorpusError) as excinfo:
        parse_corpus(text)
    assert any("ends before" in d.message for d in excinfo.value.diagnostics)


def test_content_outside_documents_is_reported():
    text = "garbage\n" + MINIMAL
    corpus, diagnostics = parse_one(text)
    assert len(corpus.documents) == 1
    assert any("outside a document" in d.message for d in diagnostics)


def test_empty_input_raises():
    with pytest.raises(EmptyCorpusError):
        parse_corpus("")


def test_parse_accepts_text_stream(tmp_path):
    path = tmp_path / "c.conll"
    path.write_text(MINIMAL, "utf-8")
    with open(path, encoding="utf-8") as handle:
        corpus, diagnostics = parse_corpus(handle)
    assert diagnostics == []
    assert corpus.document_ids() == ("mini",)


def test_serialize_validates_by_default():
    doc = corpusgen.build_doc("bad", [[corpusgen.tok("x"), corpusgen.tok("y")]])
    broken = Corpus((Document(doc.id, doc.sentences, (Cluster(0, ()),)),))
    with pytest.raises(ValidationError):
        serialize_corpus(broken)
    assert serialize_corpus(broken, validate=False)


def test_serialize_rejects_same_cluster_crossing_spans():
    doc = corpusgen.build_doc(
        "x", [[corpusgen.tok(c) for c in "abcd"]],
        clusters=[[(0, 0, 2)], [(0, 1, 3)]])
    crossing = Document(doc.id, doc.sentences, (
        Cluster(0, (MentionSpan(0, 0, 2), MentionSpan(0, 1, 3))),))
    with pytest.raises(ValidationError, match="cross"):
        serialize_corpus(Corpus((crossing,)))


def test_strip_singletons_sizes_and_idempotence():
    doc = corpusgen.build_doc(
        "s", [[corpusgen.tok(c) for c in "abcd"]],
        clusters=[[(0, 0, 0)], [(0, 1, 1), (0, 2, 2)], [(0, 3, 3)]])
    stripped = strip_singletons(doc)
    assert [c.id for c in stripped.clusters] == [1]
    assert strip_singletons(stripped) == stripped
    assert stripped.sentences is doc.sentences


def test_random_corpora_round_trip():
    rng = random.Random(99)
    for _ in range(60):
        corpus = corpusgen.random_corpus(rng, rng.randint(1, 3))
        text = serialize_corpus(corpus)
        reparsed, diagnostics = parse_one(text)
        assert diagnostics == []
        assert reparsed == Corpus(corpus.documents)  # split label not stored
        assert serialize_corpus(reparsed) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(1, 3))
def test_round_trip_property(seed, n_docs):
    corpus = corpusgen.random_corpus(random.Random(seed), n_docs)
    text = serialize_corpus(corpus)
    reparsed, diagnostics = parse_corpus(text)
    assert diagnostics == []
    assert serialize_corpus(reparsed) == text


# --- fuzzing: mutated corpora ----------------------------------------------

FUZZ_TEXTS = tuple((FIXTURES / name).read_text("utf-8") for name in
                   ("dialogue_gold.conll", "herstel.conll", "e2e.conll"))

corpus_texts = st.one_of(
    st.sampled_from(FUZZ_TEXTS),
    st.integers(0, 10 ** 9).map(lambda seed: serialize_corpus(
        corpusgen.random_corpus(random.Random(seed), 2))))

edits = st.lists(st.tuples(
    st.sampled_from(("drop", "duplicate", "unbracket", "tab", "insert")),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
    st.one_of(st.sampled_from("()|-_#09 \n\r"), st.characters()),
), min_size=1, max_size=8)


def mutate(text, changes):
    """Apply line-level edits: drop or duplicate a line, remove one
    bracket, or insert a tab or an arbitrary character."""
    lines = text.splitlines()
    for kind, row, column, char in changes:
        if not lines:
            break
        i = row % len(lines)
        line = lines[i]
        at = column % (len(line) + 1)
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, line)
        elif kind == "unbracket":
            lines[i] = line.replace("()"[column % 2], "", 1)
        else:
            lines[i] = line[:at] + ("\t" if kind == "tab" else char) + line[at:]
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(corpus_texts, edits)
def test_mutated_corpora_parse_or_fail_cleanly(text, changes):
    try:
        corpus, _ = parse_corpus(mutate(text, changes))
    except EmptyCorpusError:
        return
    canonical = serialize_corpus(corpus)
    reparsed, diagnostics = parse_corpus(canonical)
    assert diagnostics == []
    assert reparsed == corpus
