import random

import pytest

from corefkit.errors import ValidationError
from corefkit.model import (Cluster, Corpus, Document, MentionSpan, Token,
                            antecedents, check_valid, map_documents,
                            mention_containing, validate_corpus,
                            validate_document)

import corpusgen


def test_token_feat_set():
    token = Token(0, 0, "hij", feats="Case=Nom|Person=3")
    assert token.feat_set() == {"Case=Nom", "Person=3"}
    assert Token(0, 0, "x").feat_set() == frozenset()


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


def test_span_length():
    assert MentionSpan(0, 2, 2).length == 1
    assert MentionSpan(3, 1, 4).length == 4


def test_cluster_sorted_constructor():
    cluster = Cluster.sorted(7, [MentionSpan(1, 0, 0), MentionSpan(0, 1, 2)])
    assert cluster.id == 7
    assert cluster.mentions == (MentionSpan(0, 1, 2), MentionSpan(1, 0, 0))


def test_document_accessors():
    doc = corpusgen.build_doc("d", [[corpusgen.tok("Een"), corpusgen.tok("huis")],
                                    [corpusgen.tok("Ja")]])
    assert doc.token_count == 3
    assert doc.token_at(0, 1).form == "huis"
    assert [t.form for t in doc.tokens()] == ["Een", "huis", "Ja"]
    assert doc.span_forms(MentionSpan(0, 0, 1)) == ("Een", "huis")


def test_corpus_len_and_ids():
    corpus = Corpus((corpusgen.build_doc("a", [[corpusgen.tok("x")]]),
                     corpusgen.build_doc("b", [[corpusgen.tok("y")]])))
    assert len(corpus) == 2
    assert corpus.document_ids() == ("a", "b")


def test_antecedents_on_fixture(dialogue_gold):
    # cluster 0: Raven (s0), they (s1), Raven (s2), their (s2)
    raven = dialogue_gold.clusters[0]
    their = raven.mentions[3]
    assert antecedents(raven, their) == raven.mentions[:3]
    assert antecedents(raven, raven.mentions[0]) == ()


def test_antecedents_rejects_non_member(dialogue_gold):
    with pytest.raises(ValueError):
        antecedents(dialogue_gold.clusters[0], MentionSpan(0, 0, 1))


def test_antecedents_are_the_prefix_everywhere():
    rng = random.Random(11)
    for _ in range(50):
        doc = corpusgen.random_document(rng, "d")
        for cluster in doc.clusters:
            for i, span in enumerate(cluster.mentions):
                before = antecedents(cluster, span)
                assert len(before) == i
                assert all(other < span for other in before)


def test_mention_containing_innermost_first(dialogue_gold):
    # token (1, 10) sits in the single-token mention of cluster 0 and in
    # the two-token mention of cluster 1.
    hits = mention_containing(dialogue_gold, 1, 10)
    assert hits == [(0, MentionSpan(1, 10, 10)), (1, MentionSpan(1, 10, 11))]


def test_mention_containing_bounds(dialogue_gold):
    with pytest.raises(IndexError):
        mention_containing(dialogue_gold, 99, 0)
    with pytest.raises(IndexError):
        mention_containing(dialogue_gold, 0, 99)


def test_mention_containing_matches_plain_scan():
    rng = random.Random(23)
    for _ in range(40):
        doc = corpusgen.random_document(rng, "d")
        for si, sentence in enumerate(doc.sentences):
            for ti in range(len(sentence)):
                expected = sorted(
                    ((c.id, m) for c in doc.clusters for m in c.mentions
                     if m.sentence_index == si and m.start <= ti <= m.end),
                    key=lambda hit: (hit[1].length, hit[1].start, hit[0]))
                assert mention_containing(doc, si, ti) == expected


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


def test_check_valid_raises_with_issues():
    bad = Corpus((Document("d", ((Token(0, 0, ""),),)),))
    with pytest.raises(ValidationError) as excinfo:
        check_valid(bad)
    assert excinfo.value.issues


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

    serial = map_documents(corpus, tag, jobs=1)
    threaded = map_documents(corpus, tag, jobs=4)
    assert serial == threaded
    assert serial.document_ids() == tuple(i + "!" for i in corpus.document_ids())
