import math
import random
from fractions import Fraction

import pytest

from corefkit.builder import (PartitionSpec, build_cda, build_unseen,
                              sample_partitions)
from corefkit.conll import parse_corpus
from corefkit.errors import EmptyCorpusError, UnknownParadigmError
from corefkit.lexicon import GENDER_NEUTRAL_NAMES, NEOPRONOUN_NAMES
from corefkit.model import Corpus
from corefkit.transform import classify_pronoun

import corpusgen
from conftest import run


def tiny_corpus(n_docs):
    return Corpus(tuple(
        corpusgen.build_doc(f"doc{i:04d}", [[corpusgen.tok("woord")]])
        for i in range(n_docs)))


def story_corpus(rng, n_docs):
    return Corpus(tuple(
        corpusgen.story_document(rng, f"doc{i}") for i in range(n_docs)))


# --- counterfactual augmentation -------------------------------------------

def test_cda_split_is_half_and_half():
    _, assignment = build_cda(tiny_corpus(4), seed=1)
    counts = {name: list(assignment.values()).count(name)
              for name in GENDER_NEUTRAL_NAMES}
    assert counts == {"hen": 2, "die": 2}


def test_cda_odd_count_favours_the_first_paradigm():
    _, assignment = build_cda(tiny_corpus(5), seed=1)
    values = list(assignment.values())
    assert values.count("hen") == 3
    assert values.count("die") == 2


def test_cda_625_documents_split_313_312():
    _, assignment = build_cda(tiny_corpus(625), seed=0)
    values = list(assignment.values())
    assert values.count("hen") == 313
    assert values.count("die") == 312


def test_cda_keeps_corpus_order_and_ids():
    rng = random.Random(21)
    corpus = story_corpus(rng, 6)
    augmented, assignment = build_cda(corpus, seed=3)
    assert augmented.document_ids() == corpus.document_ids()
    assert list(assignment) == list(corpus.document_ids())


def test_cda_documents_are_rewritten_per_assignment():
    rng = random.Random(22)
    corpus = story_corpus(rng, 8)
    augmented, assignment = build_cda(corpus, seed=5)
    subject_of = {"hen": "hen", "die": "die"}
    possessive_of = {"hen": "hun", "die": "diens"}
    for document in augmented.documents:
        paradigm = assignment[document.id]
        allowed = {subject_of[paradigm], possessive_of[paradigm], "hen"}
        for token in document.tokens():
            if classify_pronoun(token) is not None:
                assert token.form.lower() in allowed, (document.id, token.form)


def test_cda_is_seed_deterministic():
    corpus = tiny_corpus(30)
    first = build_cda(corpus, seed=9)
    second = build_cda(corpus, seed=9)
    assert first == second
    other = build_cda(corpus, seed=10)
    assert other[1] != first[1]


def test_cda_rejects_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        build_cda(Corpus(()))


# --- partition sampling ----------------------------------------------------

def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(Fraction(0), 5)
    with pytest.raises(ValueError):
        PartitionSpec(Fraction(3, 2), 5)
    with pytest.raises(ValueError):
        PartitionSpec(Fraction(1, 2), 0)
    spec = PartitionSpec(0.25, 2)
    assert spec.fraction == Fraction(1, 4)


def test_sample_sizes_use_floor():
    corpus = tiny_corpus(10)
    spec = PartitionSpec(Fraction(1, 8), 3, seed=0)  # 1.25 documents
    partitions = sample_partitions(corpus, spec)
    assert [len(p) for p in partitions] == [1, 1, 1]


def test_sample_full_fraction_returns_every_document():
    corpus = tiny_corpus(7)
    partitions = sample_partitions(corpus, PartitionSpec(Fraction(1), 3))
    for partition in partitions:
        assert partition == list(corpus.document_ids())


def test_sample_count_override():
    corpus = tiny_corpus(625)
    spec = PartitionSpec(Fraction(30, 625), 5, seed=0)
    partitions = sample_partitions(corpus, spec)
    assert [len(p) for p in partitions] == [30] * 5


def test_sample_results_are_ordered_id_subsets():
    corpus = tiny_corpus(50)
    position = {doc_id: i for i, doc_id in enumerate(corpus.document_ids())}
    partitions = sample_partitions(corpus, PartitionSpec(Fraction(1, 5), 4, 7))
    for partition in partitions:
        assert len(set(partition)) == len(partition) == 10
        assert partition == sorted(partition, key=position.__getitem__)
        assert set(partition) <= set(corpus.document_ids())


def test_sample_partitions_differ_but_reproduce():
    corpus = tiny_corpus(100)
    spec = PartitionSpec(Fraction(1, 10), 5, seed=13)
    first = sample_partitions(corpus, spec)
    assert sample_partitions(corpus, spec) == first
    assert len({tuple(p) for p in first}) > 1  # one stream, distinct draws
    shifted = sample_partitions(corpus, PartitionSpec(Fraction(1, 10), 5, 14))
    assert shifted != first


def test_sample_degenerate_sizes():
    corpus = tiny_corpus(9)
    with pytest.raises(ValueError):
        sample_partitions(corpus, PartitionSpec(Fraction(1, 100), 2))


# --- neopronoun test sets --------------------------------------------------

def test_unseen_fixed_paradigm(herstel_doc):
    corpus = Corpus((herstel_doc,))
    rewritten, assignment = build_unseen(corpus, fixed="zem")
    assert assignment == {"herstel": "zem"}
    forms = [t.form for t in rewritten.documents[0].tokens()]
    assert forms[4] == "zem"
    assert forms[1] == forms[5] == forms[8] == "zeer"


def test_unseen_fixed_accepts_any_registered_name(herstel_doc):
    _, assignment = build_unseen(Corpus((herstel_doc,)), fixed="zij")
    assert assignment == {"herstel": "zij"}
    with pytest.raises(UnknownParadigmError):
        build_unseen(Corpus((herstel_doc,)), fixed="nope")


def test_unseen_draws_one_neopronoun_paradigm_per_document():
    corpus = tiny_corpus(200)
    _, assignment = build_unseen(corpus, seed=4)
    assert list(assignment) == list(corpus.document_ids())
    assert set(assignment.values()) <= set(NEOPRONOUN_NAMES)
    assert len(set(assignment.values())) > 1


def test_unseen_distribution_is_roughly_uniform():
    corpus = tiny_corpus(6000)
    _, assignment = build_unseen(corpus, seed=0)
    counts = {name: 0 for name in NEOPRONOUN_NAMES}
    for name in assignment.values():
        counts[name] += 1
    expected = 1000
    sigma = math.sqrt(6000 * (1 / 6) * (5 / 6))
    for name, count in counts.items():
        assert abs(count - expected) <= 5 * sigma, counts


def test_unseen_is_seed_deterministic():
    corpus = tiny_corpus(40)
    assert build_unseen(corpus, seed=6) == build_unseen(corpus, seed=6)
    assert build_unseen(corpus, seed=7)[1] != build_unseen(corpus, seed=6)[1]


def test_unseen_rejects_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        build_unseen(Corpus(()))


# --- the sample command --------------------------------------------------

@pytest.mark.parametrize("fraction,documents,size", [(0.3, 10, 3),
                                                      (0.29, 100, 29)])
def test_a_float_fraction_draws_what_sample_draws(fraction, documents, size):
    text = "".join(f"#begin document d{i}\n1\tx\tx\tX\t_\t0\troot\tO\t-\n"
                   "#end document\n" for i in range(documents))
    drawn = sample_partitions(parse_corpus(text)[0],
                              PartitionSpec(fraction, 2, seed=5))
    assert [len(ids) for ids in drawn] == [size, size]
    assert run("sample", "--fraction", repr(fraction), "--partitions", "2",
               "--seed", "5", stdin_text=text) == (0, "\n".join(
                   f"# partition {i}\n" + "".join(f"{x}\n" for x in ids)
                   for i, ids in enumerate(drawn)), "")
