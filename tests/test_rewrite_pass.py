"""The single rewrite pass and the per-(pos, feats) role table against
per-token references.

The public transforms share one private walker, so the references here
are written out in full, the way the steps read one at a time: one
pass per step, ``classify_pronoun`` on every token, and the name index
built in a pre-pass over the swapped forms.
"""
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corefkit.lexicon import (builtin_noun_lexicon, builtin_paradigms,
                              get_paradigm, load_noun_lexicon, transfer_case)
from corefkit.model import Corpus, Token
from corefkit.stats import pronoun_frequencies
from corefkit.transform import (DEFAULT_CLASSIFIER_CONFIG, DELEX_TAGS,
                                ClassifierConfig, PronounRole,
                                TransformOptions, _role_table,
                                anonymize_names, classify_pronoun,
                                delexicalize, pronoun_specific,
                                replace_nouns, swap_pronouns)

import corpusgen
from conftest import load_corpus
from test_stats import naive_recount


# --- references ---------------------------------------------------------------

def _map(document, fn):
    return replace(document, sentences=tuple(
        tuple(fn(token) for token in sentence)
        for sentence in document.sentences))


def reference_swap(document, paradigm, config=DEFAULT_CLASSIFIER_CONFIG):
    forms = {PronounRole.SUBJECT: paradigm.subject_form,
             PronounRole.OBJECT: paradigm.object_form,
             PronounRole.POSSESSIVE: paradigm.possessive_form}

    def rewrite(token):
        role = classify_pronoun(token, config)
        if role is None:
            return token
        target = forms[role]
        return replace(token, form=transfer_case(token.form, target), lemma=target)

    return _map(document, rewrite)


def reference_anonymize(document):
    indices = {}
    for token in document.tokens():
        if token.ner == "PER" and token.form not in indices:
            indices[token.form] = len(indices)

    def rewrite(token):
        if token.ner != "PER":
            return token
        tag = f"ANON_{indices[token.form]}"
        return replace(token, form=tag, lemma=tag)

    return _map(document, rewrite), indices


def reference_nouns(document, lexicon=None):
    lexicon = lexicon if lexicon is not None else builtin_noun_lexicon()

    def rewrite(token):
        entry = lexicon.get(token.form.lower()) if token.pos == "NOUN" else None
        if entry is None:
            return token
        form = transfer_case(token.form, entry.replacement)
        return replace(token, form=form, lemma=form.lower())

    return _map(document, rewrite)


def reference_delex(document, config=DEFAULT_CLASSIFIER_CONFIG):
    def rewrite(token):
        role = classify_pronoun(token, config)
        return token if role is None else replace(token, form=DELEX_TAGS[role])

    return _map(document, rewrite)


def reference_pronoun_specific(document, paradigm, config=DEFAULT_CLASSIFIER_CONFIG,
                               lexicon=None, options=TransformOptions()):
    if paradigm is not None:
        document = reference_swap(document, paradigm, config)
    if options.anonymize:
        document, _ = reference_anonymize(document)
    if options.neutralize_nouns:
        document = reference_nouns(document, lexicon)
    return document


# --- inputs -------------------------------------------------------------------

PARADIGMS = [*builtin_paradigms(), None]
OPTIONS = [TransformOptions(anonymize, nouns)
           for anonymize in (True, False) for nouns in (True, False)]
# ``anon_0`` is reached only when the noun lookup sees the anonymised form.
CUSTOM_LEXICON = load_noun_lexicon(
    "anon_0\tiemand\t0\nvrouw\tpersoon\t0\nhen\tzij\t1\noom\tfamilielid\t1\n")
LEXICONS = [None, CUSTOM_LEXICON]

PRS_3SG = "Number=Sing|Person=3|PronType=Prs"


def order_document():
    """PER-tagged pronouns and names that are lexicon keys: each step's
    result depends on the one before it."""
    tok = corpusgen.tok
    return corpusgen.build_doc("order", [
        [tok("Hij", pos="PRON", feats="Case=Nom|" + PRS_3SG, ner="PER"),
         tok("ziet", pos="VERB"),
         tok("hem", pos="PRON", feats="Case=Acc|" + PRS_3SG, ner="PER"),
         tok("Vrouw", pos="NOUN", ner="PER")],
        [tok("ANON_0", pos="NOUN"), tok("vrouw", pos="NOUN"),
         tok("hen", pos="PRON", feats="Case=Acc|" + PRS_3SG, ner="PER"),
         tok("zijn", pos="DET", feats="Poss=Yes|" + PRS_3SG)],
    ])


def sample_documents():
    rng = random.Random(7070)
    documents = [order_document()]
    documents += [corpusgen.random_document(rng, f"r{i}") for i in range(12)]
    documents += [corpusgen.story_document(rng, f"s{i}") for i in range(6)]
    for name in ("herstel.conll", "dialogue_gold.conll",
                 "dialogue_pred.conll", "e2e.conll"):
        documents += load_corpus(name).documents
    return documents


DOCUMENTS = sample_documents()

# Drawn documents mix pronoun feats, capitalisation, PER tags on every
# kind of token and forms that are lexicon keys.
FEAT_ENTRIES = ["Person=3", "Number=Sing", "PronType=Prs", "Poss=Yes",
                "Case=Nom", "Case=Acc", "PronType=Rel", "Number=Plur", ""]
feats_strings = st.lists(st.sampled_from(FEAT_ENTRIES), max_size=6).map("|".join)
token_specs = st.builds(
    corpusgen.tok,
    st.sampled_from(["hij", "Hij", "HIJ", "hem", "zijn", "Haar", "hen", "Anna",
                     "anna", "vrouw", "Vrouw", "VROUW", "oom", "ANON_0",
                     "anon_0", "ANON_1", "loopt"]),
    pos=st.sampled_from(["PRON", "DET", "NOUN", "PROPN", "VERB"]),
    feats=st.one_of(st.just("Case=Nom|" + PRS_3SG), st.just("Case=Acc|" + PRS_3SG),
                    st.just("Poss=Yes|" + PRS_3SG), feats_strings),
    ner=st.sampled_from(["O", "PER"]))
drawn_documents = st.lists(st.lists(token_specs, min_size=1, max_size=6),
                           min_size=1, max_size=4).map(
    lambda sentences: corpusgen.build_doc("drawn", sentences))


# --- the role table -----------------------------------------------------------

POS_VALUES = ["PRON", "DET", "NOUN", "X", ""]
pos_sets = st.frozensets(st.sampled_from(POS_VALUES), max_size=3)
feat_sets = st.frozensets(st.sampled_from([e for e in FEAT_ENTRIES if e]),
                          max_size=3)
configs = st.one_of(
    st.just(DEFAULT_CLASSIFIER_CONFIG),
    st.builds(ClassifierConfig, personal_pos=pos_sets, personal_feats=feat_sets,
              possessive_pos=pos_sets, possessive_feats=feat_sets,
              nominative_feat=st.sampled_from([*FEAT_ENTRIES, "_"]),
              third_singular_feats=st.frozensets(
                  st.sampled_from(["Person=3", "Number=Sing", ""]))))


@settings(max_examples=300, deadline=None)
@given(configs, st.lists(st.tuples(st.sampled_from(POS_VALUES),
                                   st.one_of(st.just("_"), feats_strings)),
                         min_size=1, max_size=12))
# A config asking for the feat "_" shows whether "_" reads as empty.
@example(ClassifierConfig(personal_feats=frozenset(), nominative_feat="_",
                          third_singular_feats=frozenset()), [("PRON", "_")])
def test_role_table_equals_classify_pronoun(config, pairs):
    table = _role_table(config)
    for _ in range(2):  # the second round reads what the first one stored
        for pos, feats in pairs:
            # The text writes empty feats as "_"; a token holds "".
            token = Token(0, 0, "x", "x", pos, "" if feats == "_" else feats)
            assert table[pos, feats] == classify_pronoun(token, config), (pos, feats)


@settings(max_examples=100, deadline=None)
@given(st.lists(drawn_documents, min_size=1, max_size=3))
def test_stats_table_equals_a_per_token_recount(documents):
    corpus = Corpus(tuple(replace(d, id=f"d{i}") for i, d in enumerate(documents)))
    wanted = ("hij", "hem", "zijn", "haar", "hen", "anna")
    report = pronoun_frequencies(corpus, wanted)
    counts, tokens, pronouns, third, masculine = naive_recount(corpus, wanted)
    assert (report.token_count, report.pronoun_count,
            report.third_singular_count, report.masculine_count) == (
        tokens, pronouns, third, masculine)
    for row in report.forms:
        assert row.total == counts[row.form]["total"]
        assert row.third_singular == counts[row.form]["third"]
        assert row.by_function == {fn: counts[row.form][fn] for fn in row.by_function}


# --- the rewrite pass ---------------------------------------------------------

@pytest.mark.parametrize("lexicon", LEXICONS, ids=["builtin", "custom"])
@pytest.mark.parametrize("options", OPTIONS, ids=lambda o: f"{o.anonymize:d}{o.neutralize_nouns:d}")
@pytest.mark.parametrize("paradigm", PARADIGMS, ids=lambda p: p.name if p else "none")
def test_pronoun_specific_equals_the_step_composition(paradigm, options, lexicon):
    for document in DOCUMENTS:
        assert pronoun_specific(document, paradigm, lexicon=lexicon, options=options) \
            == reference_pronoun_specific(document, paradigm, lexicon=lexicon,
                                          options=options), document.id


@settings(max_examples=200, deadline=None)
@given(drawn_documents, st.sampled_from(PARADIGMS), st.sampled_from(OPTIONS),
       st.sampled_from(LEXICONS))
def test_pronoun_specific_equals_the_step_composition_on_drawn_documents(
        document, paradigm, options, lexicon):
    assert pronoun_specific(document, paradigm, lexicon=lexicon, options=options) \
        == reference_pronoun_specific(document, paradigm, lexicon=lexicon,
                                      options=options)


def test_the_step_order_is_pinned():
    out = pronoun_specific(order_document(), get_paradigm("hen"),
                           lexicon=CUSTOM_LEXICON)
    forms = [[t.form for t in s] for s in out.sentences]
    # Hij/hem swap to Hen/hen, which anonymise to two names; the literal
    # ANON_0 token is no PER token, but its form is a key of the lexicon.
    assert forms == [["ANON_0", "ziet", "ANON_1", "ANON_2"],
                     ["IEMAND", "persoon", "ANON_1", "hun"]]


@settings(max_examples=200, deadline=None)
@given(drawn_documents, st.sampled_from(PARADIGMS[:-1]), st.sampled_from(LEXICONS))
def test_each_step_equals_its_reference(document, paradigm, lexicon):
    assert swap_pronouns(document, paradigm) == reference_swap(document, paradigm)
    assert anonymize_names(document) == reference_anonymize(document)
    assert replace_nouns(document, lexicon) == reference_nouns(document, lexicon)
    assert delexicalize(document) == reference_delex(document)


def test_delexicalize_equals_its_reference():
    config = ClassifierConfig(personal_pos=frozenset({"PRON", "DET"}))
    for document in DOCUMENTS:
        assert delexicalize(document) == reference_delex(document), document.id
        assert delexicalize(document, config) == reference_delex(document, config)


def test_anonymize_map_is_over_original_forms():
    _, indices = anonymize_names(order_document())
    assert indices == {"Hij": 0, "hem": 1, "Vrouw": 2, "hen": 3}


# --- reuse of unchanged data --------------------------------------------------

def test_a_document_with_nothing_to_rewrite_is_returned_as_is():
    herstel = load_corpus("herstel.conll").documents[0]
    assert anonymize_names(herstel)[0] is herstel  # no PER token
    baseline = pronoun_specific(herstel, None, options=TransformOptions(True, False))
    assert baseline is herstel
    hen = get_paradigm("hen")
    swapped = swap_pronouns(herstel, hen)
    assert swapped is not herstel
    assert swap_pronouns(swapped, hen) is swapped
    delexed = delexicalize(herstel)
    assert delexicalize(delexed) is delexed
    plain = corpusgen.build_doc("plain", [[corpusgen.tok("loopt", pos="VERB")]])
    for paradigm in PARADIGMS:
        for options in OPTIONS:
            assert pronoun_specific(plain, paradigm, options=options) is plain


def test_untouched_sentences_and_tokens_are_kept():
    seen_kept = seen_rebuilt = 0
    for document in DOCUMENTS:
        out = pronoun_specific(document, get_paradigm("die"))
        for before, after in zip(document.sentences, out.sentences):
            same = [(a.form, a.lemma) == (b.form, b.lemma)
                    for a, b in zip(before, after)]
            if all(same):
                assert after is before, document.id
                seen_kept += 1
            else:
                seen_rebuilt += 1
                for kept, a, b in zip(same, before, after):
                    assert (b is a) == kept, document.id
    assert seen_kept and seen_rebuilt
