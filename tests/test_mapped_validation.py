"""The check the CLI runs before writing a mapped corpus.

``_validate_mapped(mapped, parsed)`` skips whatever ``mapped`` shares
with the parsed corpus it was mapped from. That is sound only because
the parser returns nothing ``validate_corpus`` rejects, and only if the
skipped checks could not have failed; both premises are tested here.
"""
import random
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from conftest import FIXTURES
from corefkit import cli
from corefkit.builder import build_cda, build_unseen
from corefkit.conll import parse_corpus, serialize_corpus, strip_singletons
from corefkit.errors import EmptyCorpusError, ValidationError
from corefkit.lexicon import builtin_paradigms
from corefkit.model import (Cluster, Corpus, MentionSpan,
                            _validate_mapped, map_documents, validate_corpus)
from corefkit.resolver import resolve
from corefkit.transform import TransformOptions, delexicalize, pronoun_specific


def errors(issues):
    return [issue.message for issue in issues if issue.severity == "error"]


# --- premise: a parsed corpus has no validation error ----------------------

indices = st.sampled_from(["{n}", "{n}", "{n}", "0", "x", "", "١", "0{n}"])
forms = st.sampled_from(["Hij", "zag", "haar", "_", "", "\x00", "a b", "é"])
feats = st.sampled_from(["_", "", "Case=Nom|Person=3", "_|_", "\x00", "|"])
heads = st.sampled_from(["0", "1", "2", "9", "x", "", "-1", "١", "00"])
corefs = st.sampled_from(["-", "-", "(1)", "(1", "1)", "(1|(1", "((", ")",
                          "", "\x00", "(2)|(2)", "(0|0)", "(1)|1)", "|"])
free = st.sampled_from(["w", "_", "", "\x00", "PROPN", "PER", "O"])


@st.composite
def token_lines(draw, n):
    if draw(st.integers(0, 9)) == 0:  # a line of the wrong width
        return "\t".join(draw(st.lists(free, max_size=10)))
    columns = [draw(indices).format(n=n), draw(forms), draw(free), draw(free),
               draw(feats), draw(heads), draw(free), draw(free), draw(corefs)]
    return "\t".join(columns)


@st.composite
def corpus_texts(draw):
    lines = []
    for _ in range(draw(st.integers(1, 3))):
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


# --- equivalence: the narrowed check reports what the full one does --------

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
OPTIONS = [TransformOptions(anonymize=a, neutralize_nouns=n)
           for a in (False, True) for n in (False, True)]


def mappings():
    for paradigm in (None, *builtin_paradigms()):
        for options in OPTIONS:
            yield (f"{paradigm and paradigm.name}-{options}",
                   lambda c, p=paradigm, o=options: map_documents(
                       c, lambda d: pronoun_specific(d, p, options=o)))
    yield "delex", lambda c: map_documents(c, delexicalize)
    yield "strip-singletons", lambda c: map_documents(c, strip_singletons)
    yield "resolve", lambda c: map_documents(c, resolve)
    for options in OPTIONS:
        yield f"cda-{options}", lambda c, o=options: build_cda(c, 3, options=o)[0]
        yield (f"unseen-{options}",
               lambda c, o=options: build_unseen(c, 3, options=o)[0])


@pytest.mark.parametrize("name,mapping", list(mappings()))
def test_library_mappings_agree(name, mapping):
    for parsed in CORPORA:
        mapped = mapping(parsed)
        assert errors(_validate_mapped(mapped, parsed)) == errors(
            validate_corpus(mapped))


def rewrite_token(document, si, ti, **changes):
    sentence = list(document.sentences[si])
    sentence[ti] = replace(sentence[ti], **changes)
    sentences = list(document.sentences)
    sentences[si] = tuple(sentence)
    return replace(document, sentences=tuple(sentences))


def tab_in_form(document):
    return rewrite_token(document, 0, 0, form="a\tb")


def empty_form(document):
    return rewrite_token(document, len(document.sentences) - 1, 0, form="")


def shortened_sentence(document):
    # The longest sentence loses its last token; clusters are kept, so a
    # span ending there now runs past the sentence.
    si = max(range(len(document.sentences)),
             key=lambda i: len(document.sentences[i]))
    sentences = list(document.sentences)
    sentences[si] = sentences[si][:-1]
    return replace(document, sentences=tuple(sentences))


def renamed_to_first(corpus):
    first = corpus.documents[0].id
    return Corpus(tuple(replace(d, id=first) if i == len(corpus) - 1 else d
                        for i, d in enumerate(corpus.documents)))


def renamed_to_last(corpus):
    # A renamed earlier document takes a later one's unchanged id: the
    # later, unchanged document is the duplicate.
    last = corpus.documents[-1].id
    return Corpus(tuple(replace(d, id=last) if i == 0 else d
                        for i, d in enumerate(corpus.documents)))


BROKEN = {
    "tab-in-form": lambda c: map_documents(c, tab_in_form),
    "empty-form": lambda c: map_documents(c, empty_form),
    "shortened-sentence": lambda c: map_documents(c, shortened_sentence),
    "renamed-to-first": renamed_to_first,
    "renamed-to-last": renamed_to_last,
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_mappings_agree(name):
    reported = 0
    for parsed in CORPORA:
        mapped = BROKEN[name](parsed)
        expected = errors(validate_corpus(mapped))
        assert errors(_validate_mapped(mapped, parsed)) == expected
        reported += bool(expected)
    assert reported  # the mapping does break something


def test_broken_mapping_errors_name_the_fault():
    parsed = CORPORA[0]
    assert "form contains a tab or newline" in errors(
        _validate_mapped(BROKEN["tab-in-form"](parsed), parsed))[0]
    source = Corpus((parsed.documents[0], replace(parsed.documents[0], id="z")))
    assert errors(_validate_mapped(renamed_to_last(source), source)) == [
        "duplicate document id 'z'"]


def random_breakage(rng, document):
    """A document with a few random faults of every kind the checks see."""
    sentences = [list(s) for s in document.sentences]
    for _ in range(rng.randint(1, 3)):
        si = rng.randrange(len(sentences))
        kind = rng.choice(("field", "position", "head", "drop", "empty",
                           "span", "id", "keep"))
        if kind == "drop" and sentences[si]:
            del sentences[si][rng.randrange(len(sentences[si]))]
        elif kind == "empty":
            sentences[si] = []
        elif kind in ("field", "position", "head") and sentences[si]:
            ti = rng.randrange(len(sentences[si]))
            token = sentences[si][ti]
            changes = {
                "field": {rng.choice(("form", "lemma", "feats", "ner")):
                          rng.choice(("", "_", "a\tb", "x\ny", "\x00", "ok"))},
                "position": {"token_index": ti + 1},
                "head": {"dep_head": rng.choice((None, 0, 40, -1))},
            }[kind]
            sentences[si][ti] = replace(token, **changes)
        elif kind == "span":
            clusters = list(document.clusters) or [Cluster(0, ())]
            ci = rng.randrange(len(clusters))
            span = MentionSpan(si, 0, rng.randrange(9))
            clusters[ci] = Cluster(clusters[ci].id,
                                   (*clusters[ci].mentions, span))
            document = replace(document, clusters=tuple(clusters))
        elif kind == "id":
            document = replace(document, id=rng.choice(("a", "b\nc", "s0")))
    rows = tuple(tuple(s) if s != list(o) else o
                 for s, o in zip(sentences, document.sentences))
    if rng.random() < 0.2:
        rows = rows[:-1]
    return replace(document, sentences=rows)


def test_random_breakage_agrees():
    rng = random.Random(21)
    reported = 0
    for _ in range(400):
        parsed = rng.choice(CORPORA)
        mapped = Corpus(tuple(random_breakage(rng, d) if rng.random() < 0.6
                              else d for d in parsed.documents))
        expected = errors(validate_corpus(mapped))
        assert errors(_validate_mapped(mapped, parsed)) == expected
        reported += bool(expected)
    assert reported > 200


def test_a_different_document_count_is_checked_in_full():
    parsed = CORPORA[0]
    mapped = Corpus((*parsed.documents, tab_in_form(parsed.documents[0])))
    assert errors(_validate_mapped(mapped, parsed)) == errors(
        validate_corpus(mapped))


def test_cli_reports_what_serialize_corpus_would(tmp_path):
    parsed = CORPORA[0]
    with pytest.raises(ValidationError) as full:
        serialize_corpus(map_documents(parsed, empty_form))
    path = tmp_path / "in.conll"
    path.write_text(serialize_corpus(parsed), "utf-8")
    args = SimpleNamespace(input=str(path), output=None)
    with pytest.raises(ValidationError) as checked:
        cli._mapped_output(args, lambda: (partial(map, empty_form), ""))
    assert str(checked.value) == str(full.value)
    result = cli._mapped_output(
        args, lambda: (partial(map, strip_singletons), ""))
    assert result.stdout == serialize_corpus(
        map_documents(parsed, strip_singletons))
