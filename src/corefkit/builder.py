"""Dataset construction: counterfactual augmentation, partition sampling
and neopronoun test sets.

All randomness comes from ``random.Random(seed)``, so every builder is
reproducible from its arguments alone.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import floor
from typing import TYPE_CHECKING, Sequence

from corefkit.errors import EmptyCorpusError, _value_type
from corefkit.lexicon import (GENDER_NEUTRAL_NAMES, NEOPRONOUN_NAMES,
                              RewriteLexicon, get_paradigm)
from corefkit.transform import (ClassifierConfig, DEFAULT_CLASSIFIER_CONFIG,
                                TransformOptions, _rewrite, _specific)

if TYPE_CHECKING:
    from corefkit.model import Corpus

__all__ = [
    "PartitionSpec",
    "build_cda",
    "sample_partitions",
    "build_unseen",
]


@_value_type
class PartitionSpec:
    """How to draw training partitions: size fraction, count and seed. A
    float fraction means its shortest repr, as in ``sample --fraction``."""

    fraction: Fraction
    n_partitions: int
    seed: int = 0

    def __post_init__(self):
        fraction = self.fraction
        if isinstance(fraction, float):  # 0.3 is 3/10, not the binary value
            fraction = repr(float(fraction))
        fraction = Fraction(fraction)
        object.__setattr__(self, "fraction", fraction)
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction {fraction} not in (0, 1]")
        if self.n_partitions < 1:
            raise ValueError("need at least one partition")


def _rules(assignment: dict[str, str], config: ClassifierConfig,
           lexicon: RewriteLexicon | None, options: TransformOptions) -> dict:
    """The :func:`~corefkit.transform.pronoun_specific` rule of each
    paradigm that ``assignment`` names, by name, built once per paradigm."""
    return {name: _specific(get_paradigm(name), config, lexicon, options)
            for name in set(assignment.values())}


def _rewrite_assigned(corpus: Corpus, assignment: dict[str, str],
                      config: ClassifierConfig, lexicon: RewriteLexicon | None,
                      options: TransformOptions
                      ) -> tuple[Corpus, dict[str, str]]:
    """``corpus`` with each document rewritten with the paradigm that
    ``assignment`` gives its id, and ``assignment``."""
    from corefkit.model import Corpus

    rules = _rules(assignment, config, lexicon, options)
    return Corpus(tuple(_rewrite(document, rules[assignment[document.id]])
                        for document in corpus.documents)), assignment


def _cda_assignment(ids: Sequence[str], seed: int) -> dict[str, str]:
    """``ids``, in their order, each to "hen" or "die": the seeded RNG
    shuffles them, the first half goes to "hen" and the rest to "die";
    with an odd count "hen" receives the extra id."""
    shuffled = list(ids)
    random.Random(seed).shuffle(shuffled)
    half = (len(shuffled) + 1) // 2
    hen_name, die_name = GENDER_NEUTRAL_NAMES
    drawn = dict.fromkeys(shuffled[:half], hen_name)
    drawn.update(dict.fromkeys(shuffled[half:], die_name))
    return {doc_id: drawn[doc_id] for doc_id in ids}


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
    assignment = _cda_assignment(corpus.document_ids(), seed)
    return _rewrite_assigned(corpus, assignment, config, lexicon, options)


def _sample_ids(ids: Sequence[str], spec: PartitionSpec) -> list[list[str]]:
    """:func:`sample_partitions` of a corpus whose document ids are
    ``ids``, in corpus order."""
    n = len(ids)
    size = floor(spec.fraction * n)
    if size < 1:
        raise ValueError(
            f"partition size {size} is degenerate "
            f"(fraction {spec.fraction} of {n} documents)")
    position = {doc_id: i for i, doc_id in enumerate(ids)}
    rng = random.Random(spec.seed)
    partitions = []
    for _ in range(spec.n_partitions):
        chosen = rng.sample(ids, size)
        partitions.append(sorted(chosen, key=position.__getitem__))
    return partitions


def sample_partitions(corpus: Corpus, spec: PartitionSpec) -> list[list[str]]:
    """Draw ``n_partitions`` document-id samples without replacement.

    The partition size is ``floor(fraction * len(corpus))``. Partitions
    are drawn from one seeded stream and may overlap each other; each
    returned list is in corpus order. A size of zero is an error.
    """
    return _sample_ids(corpus.document_ids(), spec)


def _unseen_assignment(ids: Sequence[str], seed: int,
                       fixed: str | None) -> dict[str, str]:
    """``ids``, in their order, each to one of the six neopronoun
    paradigms drawn uniformly by the seeded RNG, or all to ``fixed``."""
    if fixed is not None:
        return dict.fromkeys(ids, get_paradigm(fixed).name)
    rng = random.Random(seed)
    return {doc_id: rng.choice(NEOPRONOUN_NAMES) for doc_id in ids}


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
    assignment = _unseen_assignment(corpus.document_ids(), seed, fixed)
    return _rewrite_assigned(corpus, assignment, config, lexicon, options)
