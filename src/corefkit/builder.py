"""Dataset construction: counterfactual augmentation, partition sampling
and neopronoun test sets.

All randomness comes from ``random.Random(seed)``, so every builder is
reproducible from its arguments alone.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import floor

from corefkit.errors import EmptyCorpusError
from corefkit.lexicon import (GENDER_NEUTRAL_NAMES, NEOPRONOUN_NAMES,
                              RewriteLexicon, get_paradigm)
from corefkit.model import Corpus
from corefkit.transform import (ClassifierConfig, DEFAULT_CLASSIFIER_CONFIG,
                                TransformOptions, pronoun_specific)

__all__ = [
    "PartitionSpec",
    "build_cda",
    "sample_partitions",
    "build_unseen",
]


@dataclass(frozen=True)
class PartitionSpec:
    """How to draw training partitions: size fraction, count and seed."""

    fraction: Fraction
    n_partitions: int
    seed: int = 0

    def __post_init__(self):
        fraction = Fraction(self.fraction)
        object.__setattr__(self, "fraction", fraction)
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction {fraction} not in (0, 1]")
        if self.n_partitions < 1:
            raise ValueError("need at least one partition")


def _rewrite(corpus: Corpus, assignment: dict[str, str],
             config: ClassifierConfig, lexicon: RewriteLexicon | None,
             options: TransformOptions) -> Corpus:
    """Rewrite every document with the paradigm assigned to its id."""
    paradigms = {name: get_paradigm(name) for name in set(assignment.values())}
    documents = tuple(
        pronoun_specific(document, paradigms[assignment[document.id]],
                         config, lexicon, options)
        for document in corpus.documents)
    return Corpus(documents, corpus.split_label)


def build_cda(corpus: Corpus, seed: int = 0,
              config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG,
              lexicon: RewriteLexicon | None = None,
              options: TransformOptions = TransformOptions()
              ) -> tuple[Corpus, dict[str, str]]:
    """Counterfactually augment a corpus with the two gender-neutral
    paradigms.

    Documents are shuffled by the seeded RNG and the first half is
    rewritten with "hen", the rest with "die"; with an odd count "hen"
    receives the extra document. The returned corpus keeps the input
    document order. Also returns the document-to-paradigm assignment.
    """
    if not corpus.documents:
        raise EmptyCorpusError("cannot augment an empty corpus")
    ids = list(corpus.document_ids())
    random.Random(seed).shuffle(ids)
    half = (len(ids) + 1) // 2
    hen_name, die_name = GENDER_NEUTRAL_NAMES
    assignment = {doc_id: hen_name for doc_id in ids[:half]}
    assignment.update({doc_id: die_name for doc_id in ids[half:]})
    ordered = {d.id: assignment[d.id] for d in corpus.documents}
    return _rewrite(corpus, ordered, config, lexicon, options), ordered


def sample_partitions(corpus: Corpus, spec: PartitionSpec,
                      count: int | None = None) -> list[list[str]]:
    """Draw ``n_partitions`` document-id samples without replacement.

    The partition size is ``floor(fraction * len(corpus))`` unless
    ``count`` overrides it explicitly. Partitions are drawn from one
    seeded stream and may overlap each other; each returned list is in
    corpus order. A size of zero (or beyond the corpus) is an error.
    """
    n = len(corpus.documents)
    size = count if count is not None else floor(spec.fraction * n)
    if size < 1:
        raise ValueError(
            f"partition size {size} is degenerate "
            f"(fraction {spec.fraction} of {n} documents)")
    if size > n:
        raise ValueError(f"partition size {size} exceeds the corpus ({n})")
    ids = list(corpus.document_ids())
    position = {doc_id: i for i, doc_id in enumerate(ids)}
    rng = random.Random(spec.seed)
    partitions = []
    for _ in range(spec.n_partitions):
        chosen = rng.sample(ids, size)
        partitions.append(sorted(chosen, key=position.__getitem__))
    return partitions


def build_unseen(corpus: Corpus, seed: int = 0, fixed: str | None = None,
                 config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG,
                 lexicon: RewriteLexicon | None = None,
                 options: TransformOptions = TransformOptions()
                 ) -> tuple[Corpus, dict[str, str]]:
    """Rewrite a corpus with neopronouns.

    By default each document gets one of the six neopronoun paradigms,
    drawn uniformly by the seeded RNG. With ``fixed`` set, that one
    paradigm (any registered name) applies corpus-wide. Returns the
    rewritten corpus and the document-to-paradigm record.
    """
    if not corpus.documents:
        raise EmptyCorpusError("cannot rewrite an empty corpus")
    if fixed is not None:
        paradigm = get_paradigm(fixed)
        assignment = {d.id: paradigm.name for d in corpus.documents}
    else:
        rng = random.Random(seed)
        assignment = {d.id: rng.choice(NEOPRONOUN_NAMES)
                      for d in corpus.documents}
    return _rewrite(corpus, assignment, config, lexicon, options), assignment
