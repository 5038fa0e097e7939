import random

import pytest

from corefkit.conll import serialize_corpus, strip_singletons
from corefkit.errors import ConfigFormatError
from corefkit.lexicon import builtin_paradigms, get_paradigm, load_noun_lexicon
from corefkit.model import Corpus, Token
from corefkit.transform import (ANON_FORM_RE, ClassifierConfig,
                                DEFAULT_CLASSIFIER_CONFIG, DELEX_TAGS,
                                PronounRole, TransformOptions, anonymize_names,
                                classify_pronoun, delexicalize,
                                pronoun_specific, replace_nouns, swap_pronouns)

import corpusgen
from conftest import FIXTURES, load_corpus


def token(form, pos="PRON", feats=""):
    return Token(0, 0, form, form.lower(), pos, feats)


PRS_3SG = "Number=Sing|Person=3|PronType=Prs"


@pytest.mark.parametrize("tok,role", [
    (token("hij", feats="Case=Nom|" + PRS_3SG), PronounRole.SUBJECT),
    (token("hem", feats="Case=Acc|" + PRS_3SG), PronounRole.OBJECT),
    (token("hem", feats=PRS_3SG), PronounRole.OBJECT),
    (token("zijn", feats="Number=Sing|Person=3|Poss=Yes|PronType=Prs"),
     PronounRole.POSSESSIVE),
    (token("zijn", pos="DET", feats="Number=Sing|Person=3|Poss=Yes|PronType=Prs"),
     PronounRole.POSSESSIVE),
    # not third-person singular
    (token("zij", feats="Case=Nom|Number=Plur|Person=3|PronType=Prs"), None),
    (token("jij", feats="Case=Nom|Number=Sing|Person=2|PronType=Prs"), None),
    # not personal or possessive
    (token("die", feats="Number=Sing|Person=3|PronType=Rel"), None),
    (token("deze", feats="Number=Sing|Person=3|PronType=Dem"), None),
    # right feats, wrong POS
    (token("loopt", pos="VERB", feats="Case=Nom|" + PRS_3SG), None),
])
def test_classify_pronoun(tok, role):
    assert classify_pronoun(tok) is role


def test_classifier_config_from_text():
    config = ClassifierConfig.from_text(
        "# adjust the possessive rule\n"
        "possessive.pos = PRON DET ADJ\n"
        "nominative.feat = Case=Nominative\n")
    assert config.possessive_pos == {"PRON", "DET", "ADJ"}
    assert config.nominative_feat == "Case=Nominative"
    # untouched keys keep their defaults
    assert config.personal_pos == DEFAULT_CLASSIFIER_CONFIG.personal_pos
    assert config.third_singular_feats == DEFAULT_CLASSIFIER_CONFIG.third_singular_feats


def test_classifier_config_roundtrip_of_defaults():
    assert ClassifierConfig.from_text("") == DEFAULT_CLASSIFIER_CONFIG


@pytest.mark.parametrize("text,fragment", [
    ("bogus.key = x\n", "unknown key"),
    ("personal.pos =\n", "empty value"),
    ("personal.pos PRON\n", "expected 'key = value'"),
    ("nominative.feat = A B\n", "one value"),
])
def test_classifier_config_errors(text, fragment):
    with pytest.raises(ConfigFormatError) as excinfo:
        ClassifierConfig.from_text(text)
    assert fragment in str(excinfo.value)


def test_classifier_config_changes_classification():
    config = ClassifierConfig.from_text("third_singular.feats = Person=3\n")
    plural = token("zij", feats="Case=Nom|Number=Plur|Person=3|PronType=Prs")
    assert classify_pronoun(plural) is None
    assert classify_pronoun(plural, config) is PronounRole.SUBJECT


@pytest.mark.parametrize("name", [p.name for p in builtin_paradigms()])
def test_swap_pronouns_forms_and_lemmas(herstel_doc, name):
    paradigm = get_paradigm(name)
    swapped = swap_pronouns(herstel_doc, paradigm)
    forms = [t.form for t in swapped.tokens()]
    subject, poss = paradigm.subject_form, paradigm.possessive_form
    assert forms[4] == subject
    assert forms[1] == forms[5] == forms[8] == poss
    # everything else untouched, including the nouns
    assert forms[6] == "vrouw" and forms[9] == "moeder"
    for before, after in zip(herstel_doc.tokens(), swapped.tokens()):
        assert (after.pos, after.feats, after.dep_head, after.ner) == \
            (before.pos, before.feats, before.dep_head, before.ner)
        if classify_pronoun(before) is not None:
            assert after.lemma == after.form.lower()
        else:
            assert after == before


def test_swap_transfers_capitalization():
    doc = corpusgen.build_doc("caps", [[
        corpusgen.tok("Hij", pos="PRON", feats="Case=Nom|" + PRS_3SG),
        corpusgen.tok("HEM", pos="PRON", feats=PRS_3SG),
        corpusgen.tok("zIjN", pos="PRON",
                      feats="Number=Sing|Person=3|Poss=Yes|PronType=Prs"),
    ]])
    swapped = swap_pronouns(doc, get_paradigm("die"))
    assert [t.form for t in swapped.tokens()] == ["Die", "HEN", "diens"]
    assert [t.lemma for t in swapped.tokens()] == ["die", "hen", "diens"]


def test_swap_is_idempotent_per_paradigm(herstel_doc):
    for name in ("hen", "die", "zem"):
        paradigm = get_paradigm(name)
        once = swap_pronouns(herstel_doc, paradigm)
        assert swap_pronouns(once, paradigm) == once


def test_swap_keeps_tokens_classifiable(herstel_doc):
    swapped = swap_pronouns(herstel_doc, get_paradigm("vij"))
    roles_before = [classify_pronoun(t) for t in herstel_doc.tokens()]
    roles_after = [classify_pronoun(t) for t in swapped.tokens()]
    assert roles_before == roles_after


def test_anonymize_names_example():
    doc = corpusgen.build_doc("voetbal", [[
        corpusgen.tok("Jan", pos="PROPN", ner="PER"),
        corpusgen.tok("Jansen", pos="PROPN", ner="PER"),
        corpusgen.tok("is"), corpusgen.tok("op"), corpusgen.tok("vrijdag"),
        corpusgen.tok("vrij"), corpusgen.tok("omdat"),
        corpusgen.tok("Jan", pos="PROPN", ner="PER"),
        corpusgen.tok("dan"), corpusgen.tok("voetbalt"),
    ]])
    rewritten, mapping = anonymize_names(doc)
    assert " ".join(t.form for t in rewritten.tokens()) == \
        "ANON_0 ANON_1 is op vrijdag vrij omdat ANON_0 dan voetbalt"
    assert mapping == {"Jan": 0, "Jansen": 1}
    anon0 = rewritten.sentences[0][0]
    assert anon0.lemma == "ANON_0" and anon0.ner == "PER"


def test_anonymize_is_case_sensitive():
    doc = corpusgen.build_doc("case", [[
        corpusgen.tok("Jan", ner="PER"), corpusgen.tok("JAN", ner="PER")]])
    _, mapping = anonymize_names(doc)
    assert mapping == {"Jan": 0, "JAN": 1}


def test_anonymize_indices_depend_only_on_per_tokens():
    rng = random.Random(7)
    names = ["Eva", "Smit", "Eva", "Bo"]
    for _ in range(10):
        fillers = [corpusgen.tok(w) for w in
                   rng.sample(["de", "ziet", "snel", "huis"], 3)]
        specs = [corpusgen.tok(n, ner="PER") for n in names[:2]] + fillers[:1] \
            + [corpusgen.tok(names[2], ner="PER")] + fillers[1:] \
            + [corpusgen.tok(names[3], ner="PER")]
        _, mapping = anonymize_names(corpusgen.build_doc("d", [specs]))
        assert mapping == {"Eva": 0, "Smit": 1, "Bo": 2}


def test_anonymize_restarts_per_document():
    doc = corpusgen.build_doc("one", [[corpusgen.tok("Finn", ner="PER")]])
    other = corpusgen.build_doc("two", [[corpusgen.tok("Gil", ner="PER")]])
    assert anonymize_names(doc)[1] == {"Finn": 0}
    assert anonymize_names(other)[1] == {"Gil": 0}


def test_replace_nouns_on_herstel(herstel_doc):
    rewritten = replace_nouns(herstel_doc)
    forms = [t.form for t in rewritten.tokens()]
    assert forms[6] == "persoon" and forms[9] == "ouder"
    assert rewritten.sentences[0][6].lemma == "persoon"
    # pronouns and names are untouched
    assert forms[4] == "hij" and forms[12] == "Folkestone"


def test_replace_nouns_needs_nominal_pos():
    doc = corpusgen.build_doc("pos", [[
        corpusgen.tok("man", pos="NOUN"),
        corpusgen.tok("man", pos="VERB"),       # homograph, not rewritten
        corpusgen.tok("Vrouw", pos="NOUN"),
    ]])
    forms = [t.form for t in replace_nouns(doc).tokens()]
    assert forms == ["persoon", "man", "Persoon"]


def test_replace_nouns_with_custom_lexicon():
    doc = corpusgen.build_doc("c", [[corpusgen.tok("bakker", pos="NOUN")]])
    lexicon = load_noun_lexicon("bakker\tbroodmaker\t0\n")
    assert replace_nouns(doc, lexicon).sentences[0][0].form == "broodmaker"
    # the builtin table has no such key, so the default leaves it alone
    assert replace_nouns(doc).sentences[0][0].form == "bakker"


def test_delexicalize(herstel_doc):
    tagged = delexicalize(herstel_doc)
    forms = [t.form for t in tagged.tokens()]
    assert forms[1] == forms[5] == forms[8] == "<POSS>"
    assert forms[4] == "<SUBJ>"
    assert forms[6] == "vrouw"
    # lemma stays, unlike swapping
    assert tagged.sentences[0][4].lemma == "hij"


def test_delexicalize_ignores_capitalization():
    doc = corpusgen.build_doc("d", [[
        corpusgen.tok("Hij", pos="PRON", feats="Case=Nom|" + PRS_3SG)]])
    assert delexicalize(doc).sentences[0][0].form == "<SUBJ>"


def test_delex_tags_cover_all_roles():
    assert set(DELEX_TAGS) == set(PronounRole)
    assert sorted(DELEX_TAGS.values()) == ["<OBJ>", "<POSS>", "<SUBJ>"]


def test_delex_collapses_all_paradigms_to_one_tag_sequence(herstel_doc):
    # swapping changes lemmas, delexicalizing does not; the collapse is
    # about the visible tag sequence
    reference = [t.form for t in delexicalize(herstel_doc).tokens()]
    for name in ("hij", "zij", "hen", "die", "zem"):
        swapped = swap_pronouns(herstel_doc, get_paradigm(name))
        assert [t.form for t in delexicalize(swapped).tokens()] == reference


@pytest.mark.parametrize("name", ["hij", "zij", "hen", "die"])
def test_pronoun_specific_matches_expected_fixture(herstel_doc, name):
    rewritten = pronoun_specific(herstel_doc, get_paradigm(name))
    expected = (FIXTURES / f"herstel_{name}.conll").read_text("utf-8")
    assert serialize_corpus(Corpus((rewritten,))) == expected


def test_pronoun_specific_none_keeps_pronouns(herstel_doc):
    baseline = pronoun_specific(herstel_doc, None)
    forms = [t.form for t in baseline.tokens()]
    assert forms[4] == "hij"            # pronouns untouched
    assert forms[6] == "persoon"        # nouns still neutralized


def test_pronoun_specific_options(herstel_doc):
    untouched = pronoun_specific(
        herstel_doc, None,
        options=TransformOptions(anonymize=False, neutralize_nouns=False))
    assert untouched == herstel_doc


def test_pronoun_specific_anonymizes_before_noun_rewrite():
    # A PER token whose form is also a lexicon key must end up ANON_x.
    doc = corpusgen.build_doc("order", [[
        corpusgen.tok("Heer", pos="NOUN", ner="PER")]])
    rewritten = pronoun_specific(doc, None)
    assert rewritten.sentences[0][0].form == "ANON_0"


def test_anon_form_pattern():
    assert ANON_FORM_RE.fullmatch("ANON_0")
    assert ANON_FORM_RE.fullmatch("ANON_123")
    assert not ANON_FORM_RE.fullmatch("ANON_")
    assert not ANON_FORM_RE.fullmatch("ANON_1x")
    assert not ANON_FORM_RE.fullmatch("xANON_1")


def all_transforms():
    lexicon = load_noun_lexicon("vrouw\tpersoon\t0\n")
    return [
        ("swap hen", lambda d: swap_pronouns(d, get_paradigm("hen"))),
        ("swap zem", lambda d: swap_pronouns(d, get_paradigm("zem"))),
        ("anonymize", lambda d: anonymize_names(d)[0]),
        ("replace nouns", replace_nouns),
        ("replace nouns custom", lambda d: replace_nouns(d, lexicon)),
        ("delexicalize", delexicalize),
        ("full pipeline", lambda d: pronoun_specific(d, get_paradigm("die"))),
        ("baseline pipeline", lambda d: pronoun_specific(d, None)),
    ]


def test_transforms_preserve_grid_and_clusters():
    rng = random.Random(41)
    for _ in range(40):
        doc = corpusgen.random_document(rng, "d")
        for label, fn in all_transforms():
            out = fn(doc)
            shapes = tuple(len(s) for s in out.sentences)
            assert shapes == tuple(len(s) for s in doc.sentences), label
            assert out.clusters == doc.clusters, label
            assert out.id == doc.id, label


KEPT_COLUMNS = ("sentence_index", "token_index", "pos", "feats", "dep_head",
                "dep_rel", "ner")


def test_transforms_change_only_forms_and_lemmas():
    rng = random.Random(43)
    docs = [corpusgen.random_document(rng, "d") for _ in range(40)]
    for label, fn in all_transforms():
        kept = KEPT_COLUMNS + (("lemma",) if label == "delexicalize" else ())
        rewritten = 0
        for doc in docs:
            for before, after in zip(doc.tokens(), fn(doc).tokens()):
                assert type(after) is Token, label
                for name in kept:
                    assert getattr(after, name) == getattr(before, name), (label, name)
                rewritten += after != before
        assert rewritten, label


def test_transforms_commute_with_strip_singletons():
    rng = random.Random(42)
    for _ in range(40):
        doc = corpusgen.random_document(rng, "d")
        for label, fn in all_transforms():
            assert strip_singletons(fn(doc)) == fn(strip_singletons(doc)), label


def test_e2e_fixture_transform_is_reproducible():
    corpus = load_corpus("e2e.conll")
    die = get_paradigm("die")
    first = [pronoun_specific(d, die) for d in corpus.documents]
    second = [pronoun_specific(d, die) for d in corpus.documents]
    assert first == second
