import copy
import inspect
import pickle
import random
from dataclasses import MISSING, FrozenInstanceError, astuple, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corefkit.model
from corefkit.conll import serialize_corpus
from corefkit.errors import ValidationError
from corefkit.model import (Cluster, Corpus, Document, MentionSpan, Token,
                            _span_key, map_documents, validate_corpus,
                            validate_document)

import corpusgen
from conftest import run


def test_token_feat_set():
    token = Token(0, 0, "hij", feats="Case=Nom|Person=3")
    assert token.feat_set() == {"Case=Nom", "Person=3"}
    assert Token(0, 0, "x").feat_set() == frozenset()


def test_token_init_takes_the_fields_in_order():
    """The parser builds tokens positionally, so ``Token``'s parameters
    must stay the dataclass fields, in order and with their defaults."""
    parameters = [(p.name, p.default)
                  for p in inspect.signature(Token).parameters.values()]
    assert parameters == [
        (f.name, inspect.Parameter.empty if f.default is MISSING else f.default)
        for f in fields(Token)]


TOKEN_ARGS = [
    (0, 0, "Anna", "anna", "PROPN", "", 1, "nsubj", "PER"),
    (3, 17, "Zij", "zij", "PRON", "Case=Nom|Number=Sing|Person=3|PronType=Prs",
     None, "nsubj", "O"),
    (1, 2, "\u00e9\u0663", "_", "X", "Poss=Yes", 0, "dep", "O"),
]
SPAN_ARGS = [(0, 0, 0), (0, 1, 3), (2, 1, 1), (2, 0, 4)]


def check_frozen_slots_value(value, args):
    """``value`` holds ``args`` and behaves as a frozen slots dataclass."""
    cls = type(value)
    names = [f.name for f in fields(cls)]
    assert astuple(value) == args
    assert value == cls(**dict(zip(names, args))) == value
    assert hash(value) == hash(cls(*args))
    assert repr(value) == f"{cls.__name__}({', '.join(f'{n}={a!r}' for n, a in zip(names, args))})"
    assert pickle.dumps(value) == pickle.dumps(cls(*args))
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    assert astuple(replace(value, **{names[0]: 9})) == (9, *args[1:])
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("args", TOKEN_ARGS)
def test_token_is_a_frozen_slots_value(args):
    check_frozen_slots_value(Token(*args), args)


@pytest.mark.parametrize("args", SPAN_ARGS)
def test_span_is_a_frozen_slots_value(args):
    check_frozen_slots_value(MentionSpan(*args), args)


def test_span_document_order():
    assert MentionSpan(0, 5, 9) < MentionSpan(1, 0, 0)
    assert MentionSpan(2, 1, 9) < MentionSpan(2, 2, 2)
    # same start: shorter first
    assert MentionSpan(2, 3, 3) < MentionSpan(2, 3, 5)
    assert sorted([MentionSpan(1, 0, 0), MentionSpan(0, 2, 4),
                   MentionSpan(0, 2, 2)]) == [
        MentionSpan(0, 2, 2), MentionSpan(0, 2, 4), MentionSpan(1, 0, 0)]


def test_span_rejects_reversed_offsets():
    with pytest.raises(ValueError):
        MentionSpan(0, 4, 2)


def test_document_accessors():
    doc = corpusgen.build_doc("d", [[corpusgen.tok("Een"), corpusgen.tok("huis")],
                                    [corpusgen.tok("Ja")]])
    assert doc.token_count == 3
    assert [t.form for t in doc.tokens()] == ["Een", "huis", "Ja"]
    assert doc.span_forms(MentionSpan(0, 0, 1)) == ("Een", "huis")


def test_corpus_len_and_ids():
    corpus = Corpus((corpusgen.build_doc("a", [[corpusgen.tok("x")]]),
                     corpusgen.build_doc("b", [[corpusgen.tok("y")]])))
    assert len(corpus) == 2
    assert corpus.document_ids() == ("a", "b")


def _errors(issues):
    return [i.message for i in issues if i.severity == "error"]


def _warnings(issues):
    return [i.message for i in issues if i.severity == "warning"]


def test_validate_clean_document():
    doc = corpusgen.build_doc(
        "ok", [[corpusgen.tok("Anna", ner="PER"), corpusgen.tok("loopt")]],
        clusters=[[(0, 0, 0)]])
    assert validate_document(doc) == []


def test_validate_position_mismatch():
    bad = Document("d", ((Token(0, 5, "x"),),))
    assert any("disagrees" in m for m in _errors(validate_document(bad)))


def test_validate_empty_form_and_literal_feats():
    bad = Document("d", ((Token(0, 0, "", feats="_"),),))
    messages = _errors(validate_document(bad))
    assert any("empty form" in m for m in messages)
    assert any("'_'" in m for m in messages)


def test_validate_tab_in_field():
    bad = Document("d", ((Token(0, 0, "a\tb"),),))
    assert any("tab or newline" in m for m in _errors(validate_document(bad)))


def test_line_breaks_are_what_splitlines_splits_on():
    found = "".join(c for c in map(chr, range(0x110000))
                    if len(f"a{c}b".splitlines()) == 2)
    assert found == corpusgen.LINE_BREAKS


@pytest.mark.parametrize("char", "\t" + corpusgen.LINE_BREAKS, ids=ascii)
@pytest.mark.parametrize("field", corpusgen.TEXT_FIELDS)
def test_validate_line_break_in_token_field(field, char):
    bad = Document("d", ((replace(Token(0, 0, "x"), **{field: f"a{char}b"}),),))
    assert _errors(validate_document(bad)) == [
        f"document 'd': sentence 0 token 0: {field} contains a tab or newline"]


@pytest.mark.parametrize("char", corpusgen.LINE_BREAKS, ids=ascii)
def test_validate_line_break_in_document_id(char):
    bad = Document(f"a{char}b", ((Token(0, 0, "x"),),))
    assert _errors(validate_document(bad)) == [
        f"document {bad.id!r}: id contains a newline"]


@pytest.mark.parametrize("field", corpusgen.TEXT_FIELDS)
def test_validate_lone_surrogate_in_token_field(field):
    # Such text cannot be written as UTF-8, so it must not get past
    # the serializer's validation.
    bad = Document("d", ((replace(Token(0, 0, "x"), **{field: "a\udcffb"}),),))
    assert _errors(validate_document(bad)) == [
        f"document 'd': sentence 0 token 0: {field} contains a lone surrogate"]
    with pytest.raises(ValidationError):
        serialize_corpus(Corpus((bad,)))


@pytest.mark.parametrize("char", ["\ud800", "\udfff"], ids=ascii)
def test_validate_lone_surrogate_in_document_id(char):
    bad = Document(f"a{char}", ((Token(0, 0, "x"),),))
    assert _errors(validate_document(bad)) == [
        f"document {bad.id!r}: id contains a lone surrogate"]


def test_tab_in_document_id_is_fine():
    assert validate_document(Document("a\tb", ((Token(0, 0, "x"),),))) == []


@pytest.mark.parametrize("shape,empty", [
    ((0,), 0), ((0, 2), 0), ((2, 0, 1), 1), ((1, 0), 1)],
    ids=["only", "first", "middle", "last"])
def test_validate_empty_sentence(shape, empty):
    doc = corpusgen.build_doc(
        "d", [[corpusgen.tok("w")] * n for n in shape])
    assert _errors(validate_document(doc)) == [
        f"document 'd': sentence {empty} is empty"]


def test_token_messages_keep_their_order():
    """Tokens failing several checks report them in the order of the
    full per-token rule, which the test spells out; clean tokens with
    unprintable but harmless characters report nothing."""
    tokens = [
        Token(0, 0, "ok"),
        Token(0, 0, "", feats="_", dep_head=7),
        Token(3, 2, "a\u2028b", lemma="c\td", ner="\x85\udcff", dep_head=-1),
        Token(0, 3, "\xa0\xad\x00", lemma="\u200b", pos="\x7f",
              feats="\x1f", dep_rel="\u0378", ner="\ue000"),
        Token(0, 4, "ok", dep_head=4),
    ]
    doc = Document("d", (tuple(tokens),))

    def full_rule(ti, token):
        where = f"document 'd': sentence 0 token {ti}"
        if (token.sentence_index, token.token_index) != (0, ti):
            yield (f"{where}: stored position ({token.sentence_index}, "
                   f"{token.token_index}) disagrees with the grid")
        if not token.form:
            yield f"{where}: empty form"
        if token.feats == "_":
            yield f"{where}: feats is the literal '_', use an empty string"
        for name in corpusgen.TEXT_FIELDS:
            if any(c in getattr(token, name) for c in "\t" + corpusgen.LINE_BREAKS):
                yield f"{where}: {name} contains a tab or newline"
            if any("\ud800" <= c <= "\udfff" for c in getattr(token, name)):
                yield f"{where}: {name} contains a lone surrogate"
        if token.dep_head is not None and not 0 <= token.dep_head < len(tokens):
            yield f"{where}: dep head {token.dep_head} out of range"

    expected = [m for ti, token in enumerate(tokens) for m in full_rule(ti, token)]
    assert len(expected) == 10
    assert _errors(validate_document(doc)) == expected


def test_validate_dep_head_range():
    bad = Document("d", ((Token(0, 0, "x", dep_head=3),),))
    assert any("dep head" in m for m in _errors(validate_document(bad)))


def test_validate_cluster_problems():
    sentences = ((Token(0, 0, "a"), Token(0, 1, "b")),)
    dup_ids = Document("d", sentences, (
        Cluster(1, (MentionSpan(0, 0, 0),)), Cluster(1, (MentionSpan(0, 1, 1),))))
    assert any("duplicate cluster ids" in m
               for m in _errors(validate_document(dup_ids)))

    empty = Document("d", sentences, (Cluster(0, ()),))
    assert any("no mentions" in m for m in _errors(validate_document(empty)))

    negative = Document("d", sentences, (Cluster(-1, (MentionSpan(0, 0, 0),)),))
    assert any("negative" in m for m in _errors(validate_document(negative)))

    outside = Document("d", sentences, (Cluster(0, (MentionSpan(0, 0, 5),)),))
    assert any("outside" in m for m in _errors(validate_document(outside)))

    twice = Document("d", sentences, (
        Cluster(0, (MentionSpan(0, 0, 0), MentionSpan(0, 0, 0))),))
    assert any("listed twice" in m for m in _errors(validate_document(twice)))

    unsorted = Document("d", sentences, (
        Cluster(0, (MentionSpan(0, 1, 1), MentionSpan(0, 0, 0))),))
    assert any("out of document order" in m
               for m in _errors(validate_document(unsorted)))

    # the parser returns clusters sorted by id
    id_order = Document("d", sentences, (
        Cluster(1, (MentionSpan(0, 0, 0),)), Cluster(0, (MentionSpan(0, 1, 1),))))
    assert any("clusters out of id order" in m
               for m in _errors(validate_document(id_order)))


def test_same_cluster_crossing_spans_are_an_error():
    sentences = ((Token(0, 0, "a"), Token(0, 1, "b"), Token(0, 2, "c"),
                  Token(0, 3, "d")),)
    crossing = Document("d", sentences, (
        Cluster(0, (MentionSpan(0, 0, 2), MentionSpan(0, 1, 3))),))
    assert any("cross" in m for m in _errors(validate_document(crossing)))
    # the same two spans in different clusters are fine
    apart = Document("d", sentences, (
        Cluster(0, (MentionSpan(0, 0, 2),)),
        Cluster(1, (MentionSpan(0, 1, 3),))))
    assert validate_document(apart) == []
    # nesting within one cluster is fine too
    nested = Document("d", sentences, (
        Cluster(0, (MentionSpan(0, 0, 3), MentionSpan(0, 1, 2))),))
    assert validate_document(nested) == []


def test_crossing_messages_follow_mention_order():
    sentences = tuple(tuple(Token(si, ti, "w") for ti in range(6))
                      for si in range(2))
    spans = (MentionSpan(1, 1, 3), MentionSpan(0, 2, 4), MentionSpan(1, 0, 2),
             MentionSpan(0, 0, 2), MentionSpan(0, 1, 3), MentionSpan(1, 2, 4),
             MentionSpan(0, 3, 5), MentionSpan(1, 0, 5))
    doc = Document("d", sentences, (Cluster(4, spans),))
    # the pairwise rule: every pair of spans, in mention order
    expected = [f"document 'd': cluster 4: spans {a} and {b} cross"
                for i, a in enumerate(spans) for b in spans[i + 1:]
                if a.sentence_index == b.sentence_index
                and a.start < b.start <= a.end < b.end]
    assert len(expected) == 5
    messages = _errors(validate_document(doc))
    assert messages[-len(expected):] == expected
    assert [m for m in messages if m.endswith(" cross")] == expected


def pairwise_crossings(document):
    """The crossing messages of the pairwise rule: every pair of spans of
    one cluster in one sentence, in mention order."""
    return [f"document {document.id!r}: cluster {c.id}: "
            f"spans {a} and {b} cross"
            for c in document.clusters
            for i, a in enumerate(c.mentions) for b in c.mentions[i + 1:]
            if a.sentence_index == b.sentence_index
            and a.start < b.start <= a.end < b.end]


@st.composite
def span_sets(draw):
    """Spans of one cluster over three sentences of six tokens, some
    outside the document or their sentence, in any order; with
    ``nested`` each span that would cross an earlier one is left out."""
    spans = []
    for _ in range(draw(st.integers(0, 12))):
        start = draw(st.integers(0, 7))
        spans.append(MentionSpan(draw(st.integers(0, 3)), start,
                                 start + draw(st.integers(0, 5))))
    if draw(st.booleans()):
        kept = []
        for a in spans:
            if not any(a.sentence_index == b.sentence_index and (
                    a.start < b.start <= a.end < b.end
                    or b.start < a.start <= b.end < a.end) for b in kept):
                kept.append(a)
        spans = kept
    return tuple(spans)


@settings(max_examples=400, deadline=None)
@given(spans=span_sets())
def test_crossings_are_those_of_the_pairwise_rule(spans):
    sentences = tuple(tuple(Token(si, ti, "w") for ti in range(6))
                      for si in range(3))
    document = Document("d", sentences, (Cluster(4, spans),))
    expected = pairwise_crossings(document)
    messages = _errors(validate_document(document))
    assert [m for m in messages if m.endswith(" cross")] == expected
    if expected:
        assert messages[-len(expected):] == expected


def test_nested_spans_of_one_cluster_are_checked_without_listing_pairs(
        tmp_path, monkeypatch):
    """10k spans of one cluster nest in one sentence of 20k tokens. The
    check never falls back to testing every pair of them, 50M pairs."""
    n = 20_000
    text = "".join(
        ["#begin document deep\n"]
        + [f"{i + 1}\tw\tw\tNOUN\t_\t0\troot\tO\t{coref}\n"
           for i, coref in enumerate(["(2"] * (n // 2) + ["2)"] * (n // 2))]
        + ["#end document\n"])

    def no_listing(spans):
        raise AssertionError("pairs listed for a valid cluster")

    monkeypatch.setattr(corefkit.model, "_crossing_pairs", no_listing)
    assert run("strip-singletons", stdin_text=text) == (0, text, "")


# The cluster check as it was on documents, before it took ``(id, span
# keys)`` clusters; the check must report the same, in the same order.
def reference_check_clusters(error, warning, document):
    ids = [c.id for c in document.clusters]
    if len(set(ids)) != len(ids):
        error("duplicate cluster ids")
    if any(a > b for a, b in zip(ids, ids[1:])):
        error("clusters out of id order")
    span_owner = {}
    for cluster in document.clusters:
        if cluster.id < 0:
            error(f"cluster id {cluster.id} is negative")
        if not cluster.mentions:
            error(f"cluster {cluster.id} has no mentions")
        previous = None
        for span in cluster.mentions:
            if not 0 <= span.sentence_index < len(document.sentences):
                error(f"cluster {cluster.id}: span {span} outside the document")
                continue
            sentence = document.sentences[span.sentence_index]
            if span.end >= len(sentence):
                error(f"cluster {cluster.id}: span {span} outside its sentence")
                continue
            key = _span_key(span)
            if previous is not None:
                if key == previous:
                    error(f"cluster {cluster.id}: span {span} listed twice")
                elif key < previous:
                    error(f"cluster {cluster.id}: mentions out of document order")
            previous = key
            owner = span_owner.setdefault(key, cluster.id)
            if owner != cluster.id:
                warning(f"span {span} appears in clusters {owner} and {cluster.id}")
        spans = cluster.mentions
        if len(spans) > 1 and not reference_nested(spans):
            for i, j in reference_crossing_pairs(spans):
                error(f"cluster {cluster.id}: spans {spans[i]} and "
                      f"{spans[j]} cross")


def reference_nested(spans):
    ends = []
    sentence = None
    for si, start, neg_end in sorted([(s.sentence_index, s.start, -s.end)
                                      for s in spans]):
        if si != sentence:
            sentence = si
            ends.clear()
        while ends and ends[-1] < start:
            ends.pop()
        if ends and ends[-1] < -neg_end:
            return False
        ends.append(-neg_end)
    return True


def reference_crossing_pairs(spans):
    by_sentence = {}
    for i, span in enumerate(spans):
        by_sentence.setdefault(span.sentence_index, []).append(i)
    crossings = []
    for indices in by_sentence.values():
        for x, i in enumerate(indices):
            a = spans[i]
            for j in indices[x + 1:]:
                if a.start < spans[j].start <= a.end < spans[j].end:
                    crossings.append((i, j))
    return sorted(crossings)


def check_reports(check, *args):
    reports = []
    check(lambda message: reports.append(("error", message)),
          lambda message: reports.append(("warning", message)), *args)
    return reports


def assert_checked_as_the_reference(document):
    expected = check_reports(reference_check_clusters, document)
    assert check_reports(corefkit.model._check_clusters, [
        (c.id, list(map(_span_key, c.mentions))) for c in document.clusters],
        list(map(len, document.sentences))) == expected
    assert [(issue.severity, issue.message) for issue in validate_document(
        document)] == [(severity, f"document {document.id!r}: {message}")
                       for severity, message in expected]


def test_cluster_check_on_predictions_is_the_reference_check():
    rng = random.Random(31)
    for _ in range(40):
        document = corpusgen.story_document(rng, "s", rng.randint(1, 12))
        assert_checked_as_the_reference(document)
        for merge in (0.2, 0.9):
            assert_checked_as_the_reference(
                corpusgen.perturb_clusters(rng, document, merge=merge))
        assert_checked_as_the_reference(corpusgen.random_document(rng, "r"))


@st.composite
def broken_clusters(draw):
    """Clusters over three sentences of 1, 4 and 6 tokens: ids that may
    be negative, repeat or come out of order; clusters that may be
    empty; spans in any order that may cross, repeat, sit outside the
    document or their sentence, or be shared with other clusters."""
    pool = [MentionSpan(draw(st.integers(-1, 3)), start,
                        start + draw(st.integers(0, 6)))
            for start in draw(st.lists(st.integers(0, 7), max_size=8))]
    clusters = []
    for _ in range(draw(st.integers(0, 5))):
        cid = draw(st.integers(-2, 4))
        spans = draw(st.lists(st.sampled_from(pool), max_size=5)) if pool else []
        clusters.append(Cluster(cid, tuple(spans)))
    return tuple(clusters)


@settings(max_examples=400, deadline=None)
@given(clusters=broken_clusters())
def test_cluster_check_on_broken_clusters_is_the_reference_check(clusters):
    sentences = tuple(tuple(Token(si, ti, "w") for ti in range(size))
                      for si, size in enumerate((1, 4, 6)))
    assert_checked_as_the_reference(Document("d", sentences, clusters))


@pytest.mark.parametrize("clusters", [
    (Cluster(0, (MentionSpan(0, 0, 2), MentionSpan(0, 1, 3))),),  # crossing
    (Cluster(-1, (MentionSpan(0, 0, 0),)), Cluster(-1, ())),  # negative, twice
    (Cluster(2, ()), Cluster(1, (MentionSpan(3, 0, 0),))),  # empty, outside
    (Cluster(0, (MentionSpan(0, 2, 9), MentionSpan(0, 1, 1))),),
    (Cluster(0, (MentionSpan(0, 1, 1),)), Cluster(1, (MentionSpan(0, 1, 1),)),
     Cluster(2, (MentionSpan(0, 0, 0), MentionSpan(0, 1, 1)))),  # shared
], ids=["crossing", "negative-duplicate", "empty-outside", "outside-sentence",
        "shared"])
def test_cluster_check_cases_are_the_reference_check(clusters):
    sentences = (tuple(Token(0, ti, "w") for ti in range(4)),)
    document = Document("d", sentences, clusters)
    assert check_reports(reference_check_clusters, document)
    assert_checked_as_the_reference(document)


def test_span_in_two_clusters_is_only_a_warning():
    sentences = ((Token(0, 0, "a"), Token(0, 1, "b")),)
    shared = Document("d", sentences, (
        Cluster(0, (MentionSpan(0, 0, 0), MentionSpan(0, 1, 1))),
        Cluster(1, (MentionSpan(0, 0, 0), MentionSpan(0, 1, 1)))))
    issues = validate_document(shared)
    assert _errors(issues) == []
    assert len(_warnings(issues)) == 2


def test_validate_corpus_duplicate_ids():
    doc = corpusgen.build_doc("same", [[corpusgen.tok("x")]])
    issues = validate_corpus(Corpus((doc, doc)))
    assert any("duplicate document id" in m for m in _errors(issues))


def test_generated_documents_are_valid():
    rng = random.Random(5)
    for _ in range(30):
        assert validate_document(corpusgen.random_document(rng, "d")) == []
        assert validate_document(corpusgen.story_document(rng, "s")) == []


def test_map_documents_order_is_stable():
    rng = random.Random(3)
    corpus = corpusgen.random_corpus(rng, 12)

    def tag(document):
        return Document(document.id + "!", document.sentences, document.clusters)

    mapped = map_documents(corpus, tag)
    assert mapped == map_documents(corpus, tag)
    assert mapped.document_ids() == tuple(i + "!" for i in corpus.document_ids())
