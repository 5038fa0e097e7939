import random
import re

from hypothesis import given, settings

from corefkit.conll import _read, _rows, serialize_corpus
from corefkit.lexicon import get_paradigm
from corefkit.model import Corpus, Document, MentionSpan, _check_clusters
from corefkit.resolver import ResolverConfig, _clusters, resolve
from corefkit.transform import (ClassifierConfig, _role_table, classify_pronoun,
                                pronoun_specific, swap_pronouns)

import corpusgen
from test_jobs import corpus_texts

PRS_NOM = "Case=Nom|Number=Sing|Person=3|PronType=Prs"


def spans_of(document):
    return [cluster.mentions for cluster in document.clusters]


# --- independent reimplementation of the sieve rules -----------------------

def oracle_resolve(document, window=2, string_match=True):
    names = []
    for si, sentence in enumerate(document.sentences):
        start = None
        for ti, token in enumerate(sentence):
            is_name = (token.ner == "PER"
                       or re.fullmatch(r"ANON_\d+", token.form) is not None)
            if is_name and start is None:
                start = ti
            if not is_name and start is not None:
                names.append(MentionSpan(si, start, ti - 1))
                start = None
        if start is not None:
            names.append(MentionSpan(si, start, len(sentence) - 1))

    inside_name = {(n.sentence_index, ti)
                   for n in names for ti in range(n.start, n.end + 1)}
    pronouns = [MentionSpan(tk.sentence_index, tk.token_index, tk.token_index)
                for tk in document.tokens()
                if classify_pronoun(tk) is not None
                and (tk.sentence_index, tk.token_index) not in inside_name]

    parent = {span: span for span in names}

    def find(span):
        while parent[span] != span:
            parent[span] = parent[parent[span]]
            span = parent[span]
        return span

    if string_match:
        first_with = {}
        for span in names:
            text = " ".join(document.span_forms(span)).lower()
            if text in first_with:
                parent[find(span)] = find(first_with[text])
            else:
                first_with[text] = span

    attachment = {}
    for pronoun in pronouns:
        candidates = [
            n for n in names
            if n.sentence_index >= pronoun.sentence_index - window
            and (n.sentence_index < pronoun.sentence_index
                 or (n.sentence_index == pronoun.sentence_index
                     and n.end < pronoun.start))
        ]
        if candidates:
            attachment[pronoun] = max(
                candidates, key=lambda n: (n.sentence_index, n.end))

    groups = {}
    for span in names:
        groups.setdefault(find(span), set()).add(span)
    for pronoun, anchor in attachment.items():
        groups[find(anchor)].add(pronoun)
    clusters = sorted((tuple(sorted(group)) for group in groups.values()
                       if len(group) >= 2),
                      key=lambda spans: spans[0])
    return list(clusters)


# --- fixed examples --------------------------------------------------------

def test_pronoun_attaches_to_preceding_anon():
    doc = corpusgen.build_doc("a", [
        [corpusgen.tok("ANON_0"), corpusgen.tok("slaapt")],
        [corpusgen.tok("Hij", pos="PRON", feats=PRS_NOM),
         corpusgen.tok("droomt")],
    ])
    assert spans_of(resolve(doc)) == [
        (MentionSpan(0, 0, 0), MentionSpan(1, 0, 0))]


def test_repeated_name_merges_by_exact_match():
    doc = corpusgen.build_doc("b", [
        [corpusgen.tok("ANON_0"), corpusgen.tok("komt")],
        [corpusgen.tok("dan"), corpusgen.tok("gaat"), corpusgen.tok("ANON_0")],
    ])
    assert spans_of(resolve(doc)) == [
        (MentionSpan(0, 0, 0), MentionSpan(1, 2, 2))]


def test_multi_token_name_is_one_mention():
    doc = corpusgen.build_doc("c", [
        [corpusgen.tok("Jan", ner="PER"), corpusgen.tok("Jansen", ner="PER"),
         corpusgen.tok("werkt")],
        [corpusgen.tok("hij", pos="PRON", feats=PRS_NOM),
         corpusgen.tok("rust")],
    ])
    assert spans_of(resolve(doc)) == [
        (MentionSpan(0, 0, 1), MentionSpan(1, 0, 0))]


def test_exact_match_is_case_insensitive_on_joined_forms():
    doc = corpusgen.build_doc("d", [
        [corpusgen.tok("Anna", ner="PER"), corpusgen.tok("zingt")],
        [corpusgen.tok("ANNA", ner="PER"), corpusgen.tok("danst")],
    ])
    assert spans_of(resolve(doc)) == [
        (MentionSpan(0, 0, 0), MentionSpan(1, 0, 0))]


def test_nearest_name_wins_and_later_token_breaks_ties():
    doc = corpusgen.build_doc("e", [
        [corpusgen.tok("Anna", ner="PER"), corpusgen.tok("ziet"),
         corpusgen.tok("Bo", ner="PER"), corpusgen.tok("en"),
         corpusgen.tok("hij", pos="PRON", feats=PRS_NOM),
         corpusgen.tok("lacht")],
    ])
    # Bo ends later than Anna, so the pronoun joins Bo; Anna stays a
    # singleton and is dropped
    assert spans_of(resolve(doc)) == [
        (MentionSpan(0, 2, 2), MentionSpan(0, 4, 4))]


def test_window_limits_pronoun_attachment():
    sentences = [[corpusgen.tok("Eva", ner="PER"), corpusgen.tok("belt")]]
    for _ in range(3):
        sentences.append([corpusgen.tok("de"), corpusgen.tok("tijd"),
                          corpusgen.tok("verstrijkt")])
    sentences.append([corpusgen.tok("hij", pos="PRON", feats=PRS_NOM),
                      corpusgen.tok("wacht")])
    doc = corpusgen.build_doc("f", sentences)
    assert spans_of(resolve(doc)) == []  # name 4 sentences back, window 2
    wide = resolve(doc, ResolverConfig(pronoun_window_sentences=4))
    assert spans_of(wide) == [(MentionSpan(0, 0, 0), MentionSpan(4, 0, 0))]


def test_window_zero_is_same_sentence_only():
    doc = corpusgen.build_doc("g", [
        [corpusgen.tok("Bo", ner="PER"), corpusgen.tok("praat")],
        [corpusgen.tok("hij", pos="PRON", feats=PRS_NOM)],
    ])
    assert spans_of(resolve(doc, ResolverConfig(pronoun_window_sentences=0))) == []


def test_string_match_can_be_disabled():
    doc = corpusgen.build_doc("h", [
        [corpusgen.tok("Anna", ner="PER"), corpusgen.tok("zingt")],
        [corpusgen.tok("Anna", ner="PER"), corpusgen.tok("danst")],
    ])
    assert spans_of(resolve(doc)) == [
        (MentionSpan(0, 0, 0), MentionSpan(1, 0, 0))]
    off = resolve(doc, ResolverConfig(enable_string_match=False))
    assert spans_of(off) == []


def test_gold_clusters_are_discarded():
    doc = corpusgen.build_doc(
        "i", [[corpusgen.tok("Fin", ner="PER"), corpusgen.tok("slaapt")]],
        clusters=[[(0, 0, 0), (0, 1, 1)]])
    bare = Document(doc.id, doc.sentences, ())
    assert resolve(doc) == resolve(bare)


# --- properties ------------------------------------------------------------

def test_twenty_sentence_fixture_matches_the_oracle():
    doc = corpusgen.story_document(random.Random(2024), "long",
                                   n_sentences=20, n_entities=4)
    predicted = resolve(doc)
    assert [c.mentions for c in predicted.clusters] == \
        [tuple(spans) for spans in oracle_resolve(doc)]
    assert [c.id for c in predicted.clusters] == \
        list(range(len(predicted.clusters)))


def test_random_documents_match_the_oracle():
    rng = random.Random(909)
    for _ in range(50):
        doc = corpusgen.story_document(rng, "d", n_sentences=rng.randint(2, 9),
                                       n_entities=rng.randint(1, 4))
        window = rng.choice((0, 1, 2, 3))
        string_match = rng.random() < 0.7
        config = ResolverConfig(pronoun_window_sentences=window,
                                enable_string_match=string_match)
        predicted = resolve(doc, config)
        assert [list(c.mentions) for c in predicted.clusters] == \
            [list(spans) for spans in oracle_resolve(doc, window, string_match)]


def long_document(rng, n_sentences):
    """Sentences that mix names, pronouns and filler words freely, so a
    pronoun may sit between two names or before a name, and name-free
    stretches span several sentences."""
    patterns = ((), ("name", "pronoun", "name"), ("pronoun", "name"),
                ("filler", "pronoun", "filler"))
    sentences = []
    for _ in range(n_sentences):
        kinds = rng.choices(("name", "pronoun", "filler"), weights=(1, 2, 3),
                            k=rng.randint(0, 6))
        at = rng.randint(0, len(kinds))
        kinds[at:at] = rng.choice(patterns)
        words = []
        for kind in kinds or ["filler"]:
            if kind == "name":
                form = rng.choice(("Anna", "Bo", "ANON_0", "ANON_1"))
                words.append(corpusgen.tok(
                    form, ner="O" if form.startswith("ANON_") else "PER"))
            elif kind == "pronoun":
                form, pos, feats = rng.choice(corpusgen.PRONOUNS)
                words.append(corpusgen.tok(form, pos=pos, feats=feats))
            else:
                words.append(corpusgen.tok(rng.choice(("en", "ziet", "."))))
        sentences.append(words)
    return corpusgen.build_doc("long", sentences)


def test_long_documents_match_the_oracle():
    rng = random.Random(912)
    for _ in range(2):
        doc = long_document(rng, rng.randint(200, 260))
        for window in (0, 1, 2, 3):
            for string_match in (True, False):
                config = ResolverConfig(pronoun_window_sentences=window,
                                        enable_string_match=string_match)
                assert [list(c.mentions) for c in resolve(doc, config).clusters] == \
                    [list(spans) for spans in
                     oracle_resolve(doc, window, string_match)], (window, string_match)


def test_resolver_output_shape():
    rng = random.Random(910)
    for _ in range(30):
        doc = corpusgen.story_document(rng, "d")
        predicted = resolve(doc)
        assert all(len(c.mentions) >= 2 for c in predicted.clusters)
        assert [c.id for c in predicted.clusters] == \
            list(range(len(predicted.clusters)))
        firsts = [c.mentions[0] for c in predicted.clusters]
        assert firsts == sorted(firsts)
        assert predicted.sentences == doc.sentences


def test_resolve_is_deterministic():
    doc = corpusgen.story_document(random.Random(3), "det", n_sentences=12)
    once = serialize_corpus(Corpus((resolve(doc),)))
    again = serialize_corpus(Corpus((resolve(doc),)))
    assert once == again


def test_swapping_pronouns_keeps_the_predicted_structure():
    rng = random.Random(911)
    for _ in range(25):
        doc = corpusgen.story_document(rng, "d")
        reference = spans_of(resolve(doc))
        for name in ("hen", "die", "zem", "vij"):
            swapped = swap_pronouns(doc, get_paradigm(name))
            assert spans_of(resolve(swapped)) == reference, name


def test_resolving_a_fully_transformed_document():
    doc = corpusgen.story_document(random.Random(12), "full", n_sentences=8)
    rewritten = pronoun_specific(doc, get_paradigm("die"))
    predicted = resolve(rewritten)
    # anonymization keeps name positions, and these names are
    # case-consistent, so the exact-match groups survive the rewrite too
    assert spans_of(predicted) == spans_of(resolve(doc))


# --- the predicted clusters are valid by construction ------------------------

RESOLVER_CONFIGS = [ResolverConfig(), ResolverConfig(0),
                    ResolverConfig(enable_string_match=False),
                    ResolverConfig(0, enable_string_match=False)]
ROLES = _role_table(ClassifierConfig())


def assert_clusters_pass_the_check(sentences):
    """The clusters of every resolver configuration on ``sentences`` of
    rows draw neither an error nor a warning from the cluster check, so
    the writer skips it."""
    sizes = list(map(len, sentences))
    for config in RESOLVER_CONFIGS:
        reports = []
        _check_clusters(reports.append, reports.append,
                        _clusters(sentences, config, ROLES), sizes)
        assert reports == [], config


def test_resolved_clusters_of_generated_documents_pass_the_check():
    rng = random.Random(23)
    for _ in range(40):
        for document in (corpusgen.story_document(rng, "s", rng.randint(1, 12)),
                         corpusgen.random_document(rng, "r")):
            assert_clusters_pass_the_check(_rows(document).sentences)


@settings(max_examples=150, deadline=None)
@given(text=corpus_texts())
def test_resolved_clusters_of_parsed_rows_pass_the_check(text):
    for rows in _read(text.splitlines(), []):
        assert_clusters_pass_the_check(rows.sentences)
