import random

from corefkit.model import Corpus
from corefkit.stats import (DEFAULT_REPORT_FORMS, FUNCTIONS, MASCULINE_FORMS,
                            corpus_summary, grammatical_function,
                            pronoun_frequencies)
from corefkit.transform import classify_pronoun

import corpusgen

PRS_3SG = "Number=Sing|Person=3|PronType=Prs"


def pron(form, feats, pos="PRON"):
    return corpusgen.tok(form, pos=pos, feats=feats)


def test_function_buckets():
    cases = [
        (pron("hij", "Case=Nom|" + PRS_3SG), "personal_subject"),
        (pron("hen", "Case=Acc|Number=Plur|Person=3|PronType=Prs"),
         "personal_object"),
        (pron("hun", "Number=Plur|Person=3|Poss=Yes|PronType=Prs"),
         "possessive"),
        (pron("die", "PronType=Rel"), "relative"),
        (pron("die", "PronType=Dem"), "demonstrative"),
        (corpusgen.tok("huis", pos="NOUN"), "other"),
    ]
    for spec, expected in cases:
        token = corpusgen.build_doc("x", [[spec]]).token_at(0, 0)
        assert grammatical_function(token) == expected, spec["form"]


def test_die_breakdown_example():
    # "die" 4x demonstrative, 2x relative, once as 3sg subject
    specs = ([pron("die", "PronType=Dem")] * 4
             + [pron("die", "PronType=Rel")] * 2
             + [pron("die", "Case=Nom|" + PRS_3SG)])
    corpus = Corpus((corpusgen.build_doc("d", [specs]),))
    report = pronoun_frequencies(corpus, forms=("die",))
    row = report.forms[0]
    assert row.total == 7
    assert row.by_function["demonstrative"] == 4
    assert row.by_function["relative"] == 2
    assert row.by_function["personal_subject"] == 1
    assert row.third_singular == 1


def test_form_used_but_never_third_singular():
    specs = [pron("hen", "Case=Acc|Number=Plur|Person=3|PronType=Prs")] * 3
    corpus = Corpus((corpusgen.build_doc("d", [specs]),))
    report = pronoun_frequencies(corpus, forms=("hen",))
    assert report.forms[0].total == 3
    assert report.forms[0].third_singular == 0


def test_counting_is_case_insensitive():
    specs = [pron("Die", "PronType=Dem"), pron("DIE", "PronType=Rel"),
             pron("die", "PronType=Dem")]
    corpus = Corpus((corpusgen.build_doc("d", [specs]),))
    report = pronoun_frequencies(corpus, forms=("die",))
    assert report.forms[0].total == 3
    assert report.forms[0].form == "die"


def test_masculine_share_example():
    specs = [pron("hij", "Case=Nom|" + PRS_3SG)] * 2 \
        + [pron("zijn", "Number=Sing|Person=3|Poss=Yes|PronType=Prs")] \
        + [pron("zij", "Case=Nom|" + PRS_3SG)]
    report = corpus_summary(Corpus((corpusgen.build_doc("d", [specs]),)))
    assert report.third_singular_count == 4
    assert report.masculine_count == 3
    assert report.masculine_share == 0.75


def test_pronoun_proportion():
    specs = [pron("hij", "Case=Nom|" + PRS_3SG),
             pron("haar", "Number=Sing|Person=3|Poss=Yes|PronType=Prs")] \
        + [corpusgen.tok(f"w{i}") for i in range(98)]
    report = corpus_summary(Corpus((corpusgen.build_doc("d", [specs]),)))
    assert report.token_count == 100
    assert report.pronoun_count == 2
    assert report.pronoun_proportion == 0.02


def test_empty_corpus_is_all_zero():
    report = corpus_summary(Corpus(()))
    assert report.token_count == 0
    assert report.pronoun_proportion == 0.0
    assert report.third_singular_share == 0.0
    assert report.masculine_share == 0.0
    table = pronoun_frequencies(Corpus(()), forms=("die",))
    assert table.forms[0].total == 0


def test_default_report_forms_are_lowercase_and_unique():
    assert len(set(DEFAULT_REPORT_FORMS)) == len(DEFAULT_REPORT_FORMS)
    assert all(form == form.lower() for form in DEFAULT_REPORT_FORMS)
    assert MASCULINE_FORMS == {"hij", "hem", "zijn"}


def naive_recount(corpus, wanted):
    counts = {form: {"total": 0, "third": 0,
                     **{fn: 0 for fn in FUNCTIONS}} for form in wanted}
    tokens = pronouns = third = masculine = 0
    for document in corpus.documents:
        for token in document.tokens():
            tokens += 1
            bucket = grammatical_function(token)
            if bucket in ("personal_subject", "personal_object", "possessive"):
                pronouns += 1
            if classify_pronoun(token) is not None:
                third += 1
                if token.form.lower() in MASCULINE_FORMS:
                    masculine += 1
            form = token.form.lower()
            if form in counts:
                counts[form]["total"] += 1
                counts[form][bucket] += 1
                if classify_pronoun(token) is not None:
                    counts[form]["third"] += 1
    return counts, tokens, pronouns, third, masculine


def test_frequencies_match_a_naive_recount():
    rng = random.Random(606)
    wanted = ("hij", "hem", "zijn", "haar", "die", "ze")
    for _ in range(25):
        corpus = corpusgen.random_corpus(rng, rng.randint(1, 4))
        report = pronoun_frequencies(corpus, forms=wanted)
        counts, tokens, pronouns, third, masculine = naive_recount(corpus, wanted)
        assert report.token_count == tokens
        assert report.pronoun_count == pronouns
        assert report.third_singular_count == third
        assert report.masculine_count == masculine
        summary = corpus_summary(corpus)
        assert (summary.forms, summary.token_count, summary.pronoun_count,
                summary.third_singular_count, summary.masculine_count) \
            == ((), tokens, pronouns, third, masculine)
        for row in report.forms:
            assert row.total == counts[row.form]["total"]
            assert row.third_singular == counts[row.form]["third"]
            for fn in FUNCTIONS:
                assert row.by_function[fn] == counts[row.form][fn]


def test_breakdown_sums_to_total():
    rng = random.Random(607)
    for _ in range(25):
        corpus = corpusgen.random_corpus(rng, 2)
        report = pronoun_frequencies(corpus)
        for row in report.forms:
            assert sum(row.by_function.values()) == row.total


def test_document_order_never_matters():
    rng = random.Random(608)
    corpus = corpusgen.random_corpus(rng, 5)
    shuffled = Corpus(tuple(reversed(corpus.documents)))
    assert pronoun_frequencies(corpus) == pronoun_frequencies(shuffled)
    assert corpus_summary(corpus) == corpus_summary(shuffled)
