import random
import re
import textwrap
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corefkit import conll
from corefkit.conll import (ParseDiagnostic, parse_corpus, serialize_corpus,
                            strip_singletons)
from corefkit.errors import EmptyCorpusError, ValidationError
from corefkit.model import Cluster, Corpus, Document, MentionSpan, _span_key
from corefkit.resolver import resolve

import corpusgen
from conftest import FIXTURES


def parse_one(text):
    corpus, diagnostics = parse_corpus(text)
    return corpus, diagnostics


TEXT_FIELDS = ("form", "lemma", "pos", "feats", "dep_rel", "ner")


def assert_equal_fields_shared(documents):
    """Equal values of each text field are one object across ``documents``."""
    tokens = [token for document in documents
              for sentence in document.sentences for token in sentence]
    for name in TEXT_FIELDS:
        column = [getattr(token, name) for token in tokens]
        assert len({id(value) for value in column}) == len(set(column)), name


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
    assert_equal_fields_shared(corpus.documents)
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


def test_token_in_two_single_token_clusters_only():
    text = ("#begin document m\n"
            "1\ta\ta\tX\t_\t0\tdep\tO\t(2)|(1)\n"
            "2\tb\tb\tX\t_\t0\tdep\tO\t-\n"
            "#end document\n")
    corpus, diagnostics = parse_one(text)
    assert diagnostics == []
    assert corpus.documents[0].clusters == (
        Cluster(1, (MentionSpan(0, 0, 0),)),
        Cluster(2, (MentionSpan(0, 0, 0),)))
    assert serialize_corpus(corpus) == text.replace("(2)|(1)", "(1)|(2)")


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
    # UTF-8 cannot encode it, so the document would not serialize
    pytest.param("1\ta\udcff\ta\tX\t_\t0\troot\tO\t-",
                 "line contains a lone surrogate", id="lone-surrogate"),
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


SPELLED = ("#begin document d\n"
           "{one}\ta\ta\tX\t_\t{three}\tdep\tO\t-\n"
           "2\tb\tb\tX\t_\t{one}\tdep\tO\t-\n"
           "{three}\tc\tc\tX\t_\t0\tdep\tO\t-\n"
           "#end document\n")


@pytest.mark.parametrize("one,three", [
    ("01", "3"), ("1", "03"), ("\uff11", "3"), ("1", "\u0663"),
    ("\u0661", "\uff13"), ("0001", "\u0663")])
def test_other_decimal_spellings_parse_like_the_canonical_ones(one, three):
    canonical, _ = parse_corpus(SPELLED.format(one="1", three="3"))
    corpus, diagnostics = parse_corpus(SPELLED.format(one=one, three=three))
    assert diagnostics == []
    assert corpus == canonical
    assert serialize_corpus(corpus) == SPELLED.format(one="1", three="3")


@pytest.mark.parametrize("number", ["+1", "-1", " 1", "1 ", "1.0", ""])
def test_non_numerals_keep_their_diagnostics(number):
    line = "\ta\tX\t_\t{}\tdep\tO\t-\n"
    text = ("#begin document d\n"
            f"{number}\ta{line.format(0)}"
            "#end document\n"
            "#begin document e\n"
            f"1\ta{line.format(number)}"
            "#end document\n")
    with pytest.raises(EmptyCorpusError) as excinfo:
        parse_corpus(text)
    assert excinfo.value.diagnostics == [
        ParseDiagnostic(2, "error",
                        f"document 'd': token index {number!r}, expected 1"),
        ParseDiagnostic(5, "error",
                        f"document 'e': dependency head {number!r} is not a number"),
    ]


@pytest.mark.parametrize("head", ["3", "03", "\u0663"])
def test_head_beyond_sentence_is_reported_on_its_own_line(head):
    text = ("#begin document d\n"
            "1\ta\ta\tX\t_\t3\tdep\tO\t-\n"
            "2\tb\tb\tX\t_\t3\tdep\tO\t-\n"
            "3\tc\tc\tX\t_\t0\tdep\tO\t-\n"
            "\n"
            f"1\td\td\tX\t_\t{head}\tdep\tO\t-\n"
            "2\te\te\tX\t_\t0\tdep\tO\t-\n"
            "#end document\n")
    with pytest.raises(EmptyCorpusError) as excinfo:
        parse_corpus(text)
    assert excinfo.value.diagnostics == [ParseDiagnostic(
        6, "error", "document 'd': dependency head 3 beyond sentence of 2 tokens")]
    # one more token makes room for the head
    longer = text.replace("#end", "3\tf\tf\tX\t_\t0\tdep\tO\t-\n#end")
    corpus, diagnostics = parse_corpus(longer)
    assert diagnostics == []
    assert corpus.documents[0].sentences[1][0].dep_head == 2


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


@pytest.mark.parametrize("char", ["\ud800", "\udcff", "\udfff"])
def test_lone_surrogate_in_a_document_id_drops_that_document(char):
    bad = MINIMAL.replace("mini", f"bad{char}")
    corpus, diagnostics = parse_one(bad + MINIMAL + bad)
    assert corpus.document_ids() == ("mini",)
    message = f"document {'bad' + char!r}: line contains a lone surrogate"
    assert diagnostics == [ParseDiagnostic(line, "error", message)
                           for line in (1, 9)]
    # what is kept serializes, and parses back to itself
    assert parse_one(serialize_corpus(corpus)) == (corpus, [])


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


def unserializable_documents():
    """Documents that validate_document rejects, one per line break and
    place, plus empty sentences and clusters out of id order; without
    validation each would serialize to text that does not parse back to
    the same document."""
    plain = corpusgen.build_doc("d", [[corpusgen.tok("a"), corpusgen.tok("b")]])
    first, second = plain.sentences[0]
    for i, char in enumerate("\t" + corpusgen.LINE_BREAKS):
        field = corpusgen.TEXT_FIELDS[i % len(corpusgen.TEXT_FIELDS)]
        broken = replace(first, **{field: f"x{char}y"})
        yield pytest.param(replace(plain, sentences=((broken, second),)),
                           id=f"{field}-{ascii(char)}")
        if char != "\t":
            yield pytest.param(replace(plain, id=f"d{char}e"), id=f"id-{ascii(char)}")
    for label, shape in (("only", (0,)), ("first", (0, 2)),
                         ("middle", (2, 0, 1)), ("last", (1, 0))):
        yield pytest.param(corpusgen.build_doc(
            "d", [[corpusgen.tok("w")] * n for n in shape]), id=f"empty-{label}")
    yield pytest.param(replace(plain, clusters=(
        Cluster(1, (MentionSpan(0, 0, 0),)), Cluster(0, (MentionSpan(0, 1, 1),)))),
        id="clusters-out-of-id-order")


@pytest.mark.parametrize("doc", unserializable_documents())
def test_serialize_refuses_what_would_not_parse_back(doc):
    corpus = Corpus((doc,))
    with pytest.raises(ValidationError):
        serialize_corpus(corpus)
    try:
        reparsed, _ = parse_corpus(serialize_corpus(corpus, validate=False))
    except EmptyCorpusError:
        return
    assert reparsed != corpus


def spans_rebuilt_publicly(document):
    """``document`` with every mention rebuilt through ``MentionSpan(...)``."""
    return replace(document, clusters=tuple(
        Cluster(c.id, tuple(MentionSpan(m.sentence_index, m.start, m.end)
                            for m in c.mentions))
        for c in document.clusters))


@pytest.mark.parametrize("text", [
    *(pytest.param((FIXTURES / name).read_text("utf-8"), id=name)
      for name in ("dialogue_gold.conll", "herstel.conll", "e2e.conll")),
    pytest.param(serialize_corpus(corpusgen.random_corpus(random.Random(5), 20)),
                 id="random"),
    pytest.param(serialize_corpus(Corpus(tuple(
        corpusgen.story_document(random.Random(i), f"s{i}", 40, 4)
        for i in range(5)))), id="stories"),
])
def test_bulk_built_spans_equal_public_ones(text):
    """The parser and the resolver build spans through their slots; the
    results must be the objects ``MentionSpan(...)`` makes."""
    corpus, _ = parse_corpus(text)
    for document in corpus.documents:
        for result in (document, resolve(document)):
            public = spans_rebuilt_publicly(result)
            assert result == public
            assert repr(result) == repr(public)


# The coref-entry rule the parser implemented with a regex; the parser now
# slices the entry, and this reference keeps the two in agreement.
REFERENCE_ENTRY_RE = re.compile(r"(\()?(\d+)(\))?")


def reference_coref_entries(self, line_number, field, tok):
    sent = len(self.sentences)
    for entry in field.split("|"):
        match = REFERENCE_ENTRY_RE.fullmatch(entry)
        cid = conll._number(match.group(2)) if match else None
        if cid is None or not (match.group(1) or match.group(3)):
            self.error(line_number, f"malformed coreference entry {entry!r}")
            continue
        if match.group(1) and match.group(3):
            self.spans.setdefault(cid, []).append((sent, tok, tok))
        elif match.group(1):
            self.open_spans.setdefault(cid, []).append((tok, line_number))
        else:
            stack = self.open_spans.get(cid)
            if not stack:
                self.error(line_number,
                           f"'{entry}' closes cluster {cid} that is not open")
                continue
            start, _ = stack.pop()
            self.spans.setdefault(cid, []).append((sent, start, tok))


def parse_outcome(text):
    try:
        corpus, diagnostics = parse_corpus(text)
    except EmptyCorpusError as error:
        return None, error.diagnostics
    return corpus, diagnostics


# Several spellings of the ids 0, 1, 3, 255 and 256, so brackets still
# pair up; 255 is the last id of the reader's one-span table.
coref_ids = st.sampled_from(["0", "00", "1", "01", "\u0661", "3", "\uff13",
                             "255", "0255", "\u0662\u0665\u0665", "256",
                             "\u0662\u0665\u0666"])
well_formed = st.one_of(st.builds("({}".format, coref_ids),
                        st.builds("{})".format, coref_ids),
                        st.builds("({})".format, coref_ids))
noise = st.text(alphabet="()|-0123\u0661\uff13a\u00e9", max_size=4)


def coref_documents(entries):
    """Sentences of coref fields: ``-`` or ``|``-joined entries, some empty."""
    fields = st.one_of(st.just("-"),
                       st.lists(entries, min_size=1, max_size=3).map("|".join))
    return st.lists(st.lists(fields, min_size=1, max_size=5), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.one_of(coref_documents(well_formed),
                 coref_documents(st.one_of(well_formed, noise))),
       st.booleans())
# Whole fields on both sides of the reader's one-span table, and an open
# bracket at the end of the input.
@example([["(254)", "(255)", "(0255)", "(\u0662\u0665\u0665)", "(256)"],
          ["(255)|(256)", "(256)"]], True)
@example([["(255)", "(255"]], False)
def test_coref_column_parses_like_the_reference_rule(sentences, ended):
    # Without ``#end document`` the input ends inside the document, which
    # must still be reported before any bracket left open.
    text = "#begin document d\n" + "\n\n".join(
        "\n".join(f"{ti}\tw\tw\tX\t_\t0\tdep\tO\t{field}"
                  for ti, field in enumerate(fields, 1))
        for fields in sentences) + ("\n#end document\n" if ended else "\n")
    corpus, diagnostics = parse_outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        # The reference reads every field by the rule, the table bypassed.
        patch.setattr(conll, "_WHOLE_SPAN_IDS", {})
        patch.setattr(conll._DocumentReader, "_coref_entries",
                      reference_coref_entries)
        expected_corpus, expected_diagnostics = parse_outcome(text)
    assert diagnostics == expected_diagnostics
    assert corpus == expected_corpus


def test_the_end_of_input_is_reported_before_an_open_bracket():
    text = ("#begin document d\n1\tw\tw\tX\t_\t0\tdep\tO\t(255)\n"
            "2\tw\tw\tX\t_\t0\tdep\tO\t(255\n")
    assert parse_outcome(text) == (None, [
        ParseDiagnostic(4, "error",
                        "document 'd': input ends before '#end document'"),
        ParseDiagnostic(3, "error", "document 'd': coreference bracket "
                                    "'(255' is never closed")])


# The writer as it was before each cluster's brackets were built once and
# lines joined from a numeral table; the writer must give the same text.
def reference_coref_fields(clusters):
    entries = {}
    for cid, spans in clusters:
        for si, start, end in spans:
            if start == end:
                entries.setdefault((si, start), []).append((1, cid, 0))
            else:
                entries.setdefault((si, start), []).append((0, cid, -end))
                entries.setdefault((si, end), []).append((2, cid, 0))
    return {key: "|".join([f"({cid}" if rank == 0 else
                           f"({cid})" if rank == 1 else f"{cid})"
                           for rank, cid, _ in sorted(parts)])
            for key, parts in entries.items()}


def reference_document_text(doc_id, sentences, clusters):
    fields = reference_coref_fields(clusters)
    lines = [conll.BEGIN_PREFIX + doc_id]
    for si, sentence in enumerate(sentences):
        if si:
            lines.append("")
        for ti, (form, lemma, pos, feats, head, dep_rel, ner) in enumerate(
                sentence):
            lines.append(f"{ti + 1}\t{form}\t{lemma}\t{pos}\t{feats or '_'}\t"
                         f"{head}\t{dep_rel}\t{ner}\t{fields.get((si, ti), '-')}")
    lines.append(conll.END_LINE + "\n")
    return "\n".join(lines)


# Ids and heads on both sides of 256, the end of the numeral table.
numbers = st.one_of(st.integers(0, 9), st.integers(250, 260),
                    st.integers(0, 10 ** 6))


@st.composite
def written_documents(draw):
    """``(id, sentences, clusters)`` as the writer takes them: sentences of
    up to 300 rows with heads up to 10**6, and clusters of any ids whose
    spans may share tokens, starts and ends, repeat, cross or come in
    any order."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    sizes = draw(st.lists(st.sampled_from([1, 2, 5, 255, 256, 300]),
                          min_size=1, max_size=3))
    sentences = [[(rng.choice("abc"), "l", "X", rng.choice(["", "_", "A=b"]),
                   draw(numbers) if rng.random() < 0.05 else rng.randrange(9),
                   "dep", "O") for _ in range(size)] for size in sizes]
    clusters = []
    for cid in sorted(draw(st.lists(numbers, unique=True, max_size=6))):
        spans = []
        for _ in range(draw(st.integers(0, 6))):
            si = rng.randrange(len(sizes))
            start = rng.choice([0, sizes[si] - 1, rng.randrange(sizes[si])])
            end = min(sizes[si] - 1, start + rng.choice([0, 0, 1, 2, 300]))
            spans.append((si, start, end))
            if rng.random() < 0.3:  # another span at the same start
                spans.append((si, start, rng.randrange(start, sizes[si])))
        if draw(st.booleans()):
            spans.sort()
        clusters.append((cid, spans))
    return "d", sentences, clusters


@settings(max_examples=300, deadline=None)
@given(written_documents())
def test_document_text_is_the_reference_text(document):
    doc_id, sentences, clusters = document
    assert conll._coref_fields(clusters) == reference_coref_fields(clusters)
    assert (conll._document_text(doc_id, sentences, clusters)
            == reference_document_text(doc_id, sentences, clusters))


def test_document_text_at_the_edges_of_the_numeral_table():
    sentences = [[("w", "w", "X", "", (ti * 7) % 301, "dep", "O")
                  for ti in range(300)]]
    clusters = [(255, [(0, 0, 299), (0, 254, 256)]),
                (256, [(0, 255, 255), (0, 256, 256)]),
                (10 ** 6, [(0, 299, 299)])]
    text = conll._document_text("d", sentences, clusters)
    assert text == reference_document_text("d", sentences, clusters)
    assert text.splitlines()[256:258] == [
        "256\tw\tw\tX\t_\t280\tdep\tO\t(256)",
        "257\tw\tw\tX\t_\t287\tdep\tO\t(256)|255)"]
    corpus, diagnostics = parse_corpus(text)
    assert diagnostics == []
    assert serialize_corpus(corpus) == text


# Two same-id spans opening on one token write the same bracket twice;
# the reader's innermost-closes-first matching must give both back.
@pytest.mark.parametrize("spans, column", [
    ([(0, 0, 1), (0, 0, 3)], "(7|(7"),
    ([(0, 0, 3), (0, 0, 1)], "(7|(7"),
    ([(0, 0, 0), (0, 0, 2)], "(7|(7)"),
])
def test_same_id_spans_sharing_a_start_parse_back(spans, column):
    sentences = [[("w", "w", "X", "", 0, "dep", "O")] * 4]
    clusters = [(3, [(0, 0, 2)]), (7, spans)]
    text = conll._document_text("d", sentences, clusters)
    assert text == reference_document_text("d", sentences, clusters)
    assert text.splitlines()[1].endswith("\t(3|" + column)
    corpus, diagnostics = parse_corpus(text)
    assert diagnostics == []
    assert [sorted(map(_span_key, c.mentions))
            for c in corpus.documents[0].clusters] == [[(0, 0, 2)], sorted(spans)]


def test_span_listed_twice_diagnostic_text():
    text = ("#begin document d\n"
            "1\tw\tw\tX\t_\t0\tdep\tO\t(1)|(1)\n"
            "2\tw\tw\tX\t_\t0\tdep\tO\t(2|(2\n"
            "3\tw\tw\tX\t_\t0\tdep\tO\t2)|2)\n"
            "#end document\n"
            "#begin document e\n"
            "1\tw\tw\tX\t_\t0\tdep\tO\t(1)\n"
            "#end document\n")
    corpus, diagnostics = parse_corpus(text)
    assert corpus.document_ids() == ("e",)
    assert diagnostics == [
        ParseDiagnostic(5, "error", "document 'd': cluster 1 contains span "
                        "MentionSpan(sentence_index=0, start=0, end=0) twice"),
        ParseDiagnostic(5, "error", "document 'd': cluster 2 contains span "
                        "MentionSpan(sentence_index=0, start=1, end=2) twice"),
    ]


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


@settings(max_examples=100, deadline=None)
@given(corpus_texts)
def test_parse_shares_equal_field_strings(text):
    corpus, diagnostics = parse_corpus(text)
    assert diagnostics == []
    assert_equal_fields_shared(corpus.documents)
    assert serialize_corpus(corpus) == text


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
