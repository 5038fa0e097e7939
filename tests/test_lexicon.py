import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkit.errors import LexiconFormatError, UnknownParadigmError
from corefkit.lexicon import (GENDER_NEUTRAL_NAMES, NEOPRONOUN_NAMES,
                              PronounParadigm, RewriteEntry,
                              builtin_noun_lexicon, builtin_paradigms,
                              get_paradigm, load_noun_lexicon, transfer_case)
from corefkit.transform import replace_nouns

import corpusgen


def forms_of(paradigm):
    return paradigm.subject_form, paradigm.object_form, paradigm.possessive_form


def test_registry_has_ten_paradigms():
    paradigms = builtin_paradigms()
    assert len(paradigms) == 10
    assert len({p.name for p in paradigms}) == 10


@pytest.mark.parametrize("name,forms", [
    ("hij", ("hij", "hem", "zijn")),
    ("zij", ("zij", "haar", "haar")),
    ("hen", ("hen", "hen", "hun")),
    ("die", ("die", "hen", "diens")),
    ("dee", ("dee", "dem", "dijr")),
    ("dij", ("dij", "dem", "dijr")),
    ("nij", ("nij", "ner", "nijr")),
    ("vij", ("vij", "vijn", "vijns")),
    ("zhij", ("zhij", "zhaar", "zhaar")),
    ("zem", ("zem", "zeer", "zeer")),
])
def test_paradigm_forms(name, forms):
    assert forms_of(get_paradigm(name)) == forms


def test_paradigm_groups():
    assert GENDER_NEUTRAL_NAMES == ("hen", "die")
    assert NEOPRONOUN_NAMES == ("dee", "dij", "nij", "vij", "zhij", "zem")
    registered = {p.name for p in builtin_paradigms()}
    assert set(GENDER_NEUTRAL_NAMES) <= registered
    assert set(NEOPRONOUN_NAMES) <= registered


def test_get_paradigm_is_case_insensitive():
    assert get_paradigm("HEN") is get_paradigm("hen")
    assert get_paradigm("Die").name == "die"


def test_get_paradigm_unknown():
    with pytest.raises(UnknownParadigmError) as excinfo:
        get_paradigm("xyz")
    assert "xyz" in str(excinfo.value)
    assert "hen" in str(excinfo.value)  # lists the known names
    assert isinstance(excinfo.value, KeyError)


def test_paradigm_normalises_and_validates():
    paradigm = PronounParadigm("Foo", "FA", "FB", "FC")
    assert paradigm.name == "foo"
    assert forms_of(paradigm) == ("fa", "fb", "fc")
    with pytest.raises(ValueError):
        PronounParadigm("x", "", "b", "c")


def test_builtin_noun_lexicon_shape():
    lexicon = builtin_noun_lexicon()
    assert len(lexicon) == 86
    assert all(key == key.lower() for key in lexicon.entries)
    assert all(key.lower() != entry.replacement.lower()
               for key, entry in lexicon.entries.items())
    assert sum(entry.lossy for entry in lexicon.entries.values()) == 31


@pytest.mark.parametrize("gendered,neutral,lossy", [
    ("vrouw", "persoon", False),
    ("man", "persoon", False),
    ("moeder", "ouder", False),
    ("vader", "ouder", False),
    ("koningin", "staatshoofd", False),
    ("brandweerman", "brandweermens", False),
    ("tovenaar", "magiër", False),
    ("heks", "magiër", False),
    ("broer", "familielid", True),
    ("tante", "familielid", True),
    ("vriend", "maat", True),
    ("vriendje", "partner", True),
    ("weduwe", "nabestaande", True),
    ("zussen", "familieleden", True),
])
def test_builtin_noun_rows(gendered, neutral, lossy):
    entry = builtin_noun_lexicon().get(gendered)
    assert entry == RewriteEntry(neutral, lossy)


def test_load_noun_lexicon_basics():
    lexicon = load_noun_lexicon(
        "# comment line\n"
        "\n"
        "Zeeman\tzeevaarder\t0\n"
        "non\tkloosterling\t1\n")
    assert len(lexicon) == 2
    assert lexicon.get("zeeman") == RewriteEntry("zeevaarder", False)
    assert lexicon.get("non") == RewriteEntry("kloosterling", True)
    assert "zeeman" in lexicon
    assert "Zeeman" not in lexicon  # keys are stored lowercased


@pytest.mark.parametrize("text,fragment", [
    ("a\tb\n", "3 tab-separated fields"),
    ("a\tb\tc\td\n", "3 tab-separated fields"),
    ("a\tb\t2\n", "lossy flag"),
    ("\tb\t0\n", "empty field"),
    ("zelf\tZelf\t0\n", "maps to itself"),
])
def test_load_noun_lexicon_errors(text, fragment):
    with pytest.raises(LexiconFormatError) as excinfo:
        load_noun_lexicon("ok\tfine\t0\n" + text)
    assert "line 2" in str(excinfo.value)
    assert fragment in str(excinfo.value)


def test_load_noun_lexicon_duplicate_warns_last_wins(caplog):
    with caplog.at_level(logging.WARNING, logger="corefkit.lexicon"):
        lexicon = load_noun_lexicon("x\teerste\t0\nX\ttweede\t1\n")
    assert lexicon.get("x") == RewriteEntry("tweede", True)
    assert any("duplicate" in record.message for record in caplog.records)


def test_load_from_stream(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("bok\tgeit\t0\n", "utf-8")
    with open(path, encoding="utf-8") as handle:
        assert len(load_noun_lexicon(handle)) == 1


@pytest.mark.parametrize("template,replacement,expected", [
    ("vrouw", "persoon", "persoon"),
    ("Vrouw", "persoon", "Persoon"),
    ("VROUW", "persoon", "PERSOON"),
    ("vRoUw", "persoon", "persoon"),   # mixed case falls back to stored form
    ("A", "buur", "Buur"),             # single capital counts as initial cap
    ("a", "buur", "buur"),
    ("", "x", "x"),
])
def test_transfer_case(template, replacement, expected):
    assert transfer_case(template, replacement) == expected


def rewritten_noun(form):
    """What ``replace_nouns`` makes of ``form`` as a lone noun."""
    doc = corpusgen.build_doc("n", [[corpusgen.tok(form, pos="NOUN")]])
    return replace_nouns(doc).sentences[0][0].form


def test_lookup_noun():
    assert rewritten_noun("vrouw") == "persoon"
    assert rewritten_noun("Moeder") == "Ouder"
    assert rewritten_noun("KONINGIN") == "STAATSHOOFD"
    assert rewritten_noun("fiets") == "fiets"


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(builtin_noun_lexicon().entries)),
       st.lists(st.booleans(), min_size=0, max_size=12))
def test_lookup_ignores_casing(key, flips):
    mixed = "".join(
        c.upper() if i < len(flips) and flips[i] else c
        for i, c in enumerate(key))
    result = rewritten_noun(mixed)
    assert result.lower() == builtin_noun_lexicon().get(key).replacement.lower()
